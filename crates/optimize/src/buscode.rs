//! Low-power bus encoding (survey §III-G).
//!
//! Every codec is *reversible*: `decode(encode(w)) == w`, checked by the
//! test suite, because an encoding that loses information saves no power —
//! it just breaks the bus. Transition counts are measured on the physical
//! lines actually driven (data lines plus any redundant control line).

use std::collections::HashMap;

/// A stateful bus encoder/decoder pair.
///
/// `encode` maps the next word to the physical line values; `decode` must
/// invert it at the receiving end. Both ends carry the codec's state.
pub trait BusCodec {
    /// Number of physical lines (data width plus redundant lines).
    fn line_count(&self) -> usize;

    /// Encodes the next word into physical line values.
    fn encode(&mut self, word: u64) -> u64;

    /// Decodes physical line values back into the original word.
    fn decode(&mut self, lines: u64) -> u64;

    /// A short display name.
    fn name(&self) -> &'static str;
}

/// Counts total line transitions for a word stream under a codec,
/// verifying decodability along the way.
///
/// # Panics
///
/// Panics if the codec fails to round-trip any word (a codec bug).
pub fn count_transitions(
    mut encoder: Box<dyn BusCodec>,
    mut decoder: Box<dyn BusCodec>,
    words: &[u64],
) -> u64 {
    let mut prev: Option<u64> = None;
    let mut transitions = 0u64;
    for &w in words {
        let lines = encoder.encode(w);
        let back = decoder.decode(lines);
        assert_eq!(back, w, "codec {} failed to round-trip {w:#x}", encoder.name());
        if let Some(p) = prev {
            transitions += (p ^ lines).count_ones() as u64;
        }
        prev = Some(lines);
    }
    transitions
}

/// Transitions per emitted word (the §III-G figure of merit).
pub fn transitions_per_word(
    encoder: Box<dyn BusCodec>,
    decoder: Box<dyn BusCodec>,
    words: &[u64],
) -> f64 {
    if words.len() < 2 {
        return 0.0;
    }
    count_transitions(encoder, decoder, words) as f64 / (words.len() - 1) as f64
}

fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

// ---------------------------------------------------------------------

/// The identity (unencoded) baseline.
#[derive(Debug, Clone)]
pub struct Unencoded {
    width: usize,
}

impl Unencoded {
    /// An uncoded `width`-bit bus.
    pub fn new(width: usize) -> Self {
        Unencoded { width }
    }
}

impl BusCodec for Unencoded {
    fn line_count(&self) -> usize {
        self.width
    }
    fn encode(&mut self, word: u64) -> u64 {
        word & mask(self.width)
    }
    fn decode(&mut self, lines: u64) -> u64 {
        lines & mask(self.width)
    }
    fn name(&self) -> &'static str {
        "unencoded"
    }
}

// ---------------------------------------------------------------------

/// Bus-Invert coding (Stan–Burleson): invert the word when more than half
/// the lines would toggle; one redundant `INV` line (the top line).
#[derive(Debug, Clone)]
pub struct BusInvert {
    width: usize,
    prev_lines: u64,
}

impl BusInvert {
    /// A Bus-Invert codec over `width` data lines (+1 INV line).
    pub fn new(width: usize) -> Self {
        BusInvert { width, prev_lines: 0 }
    }
}

impl BusCodec for BusInvert {
    fn line_count(&self) -> usize {
        self.width + 1
    }

    fn encode(&mut self, word: u64) -> u64 {
        let m = mask(self.width);
        let word = word & m;
        let prev_data = self.prev_lines & m;
        let toggles = (word ^ prev_data).count_ones() as usize;
        let lines = if 2 * toggles > self.width { (!word & m) | (1 << self.width) } else { word };
        self.prev_lines = lines;
        lines
    }

    fn decode(&mut self, lines: u64) -> u64 {
        let m = mask(self.width);
        if lines >> self.width & 1 == 1 {
            !lines & m
        } else {
            lines & m
        }
    }

    fn name(&self) -> &'static str {
        "bus-invert"
    }
}

// ---------------------------------------------------------------------

/// Gray coding: consecutive addresses differ in a single line.
#[derive(Debug, Clone)]
pub struct GrayCode {
    width: usize,
}

impl GrayCode {
    /// A Gray codec over `width` lines (irredundant).
    pub fn new(width: usize) -> Self {
        GrayCode { width }
    }
}

impl BusCodec for GrayCode {
    fn line_count(&self) -> usize {
        self.width
    }

    fn encode(&mut self, word: u64) -> u64 {
        let w = word & mask(self.width);
        w ^ (w >> 1)
    }

    fn decode(&mut self, lines: u64) -> u64 {
        let mut b = lines & mask(self.width);
        let mut shift = 1;
        while shift < self.width {
            b ^= b >> shift;
            shift <<= 1;
        }
        b & mask(self.width)
    }

    fn name(&self) -> &'static str {
        "gray"
    }
}

// ---------------------------------------------------------------------

/// T0 coding (Benini et al.): an `INC` line freezes the bus on
/// consecutive addresses; the receiver increments locally.
#[derive(Debug, Clone)]
pub struct T0Code {
    width: usize,
    prev_word: Option<u64>,
    prev_lines: u64,
}

impl T0Code {
    /// A T0 codec over `width` data lines (+1 INC line).
    pub fn new(width: usize) -> Self {
        T0Code { width, prev_word: None, prev_lines: 0 }
    }
}

impl BusCodec for T0Code {
    fn line_count(&self) -> usize {
        self.width + 1
    }

    fn encode(&mut self, word: u64) -> u64 {
        let m = mask(self.width);
        let word = word & m;
        let lines = match self.prev_word {
            Some(p) if word == (p + 1) & m => {
                // Freeze data lines, raise INC.
                (self.prev_lines & m) | (1 << self.width)
            }
            _ => word,
        };
        self.prev_word = Some(word);
        self.prev_lines = lines;
        lines
    }

    fn decode(&mut self, lines: u64) -> u64 {
        let m = mask(self.width);
        let word = if lines >> self.width & 1 == 1 {
            (self.prev_word.unwrap_or(0) + 1) & m
        } else {
            lines & m
        };
        self.prev_word = Some(word);
        word
    }

    fn name(&self) -> &'static str {
        "t0"
    }
}

// ---------------------------------------------------------------------

/// Working-Zone encoding (Musoll et al.): the receiver tracks a small set
/// of zone base addresses; in-zone accesses transmit only a Gray-coded
/// offset plus the zone id, out-of-zone accesses transmit the full
/// address (flag line low) and replace the least-recently-used zone.
#[derive(Debug, Clone)]
pub struct WorkingZone {
    width: usize,
    offset_bits: usize,
    zones: Vec<u64>,
    lru: Vec<u64>,
    tick: u64,
    prev_lines: u64,
}

impl WorkingZone {
    /// A Working-Zone codec with `zone_count` zones of `2^offset_bits`
    /// words over a `width`-bit address space (+1 hit-flag line).
    ///
    /// # Panics
    ///
    /// Panics if the zone id and offset do not fit in the data lines.
    pub fn new(width: usize, zone_count: usize, offset_bits: usize) -> Self {
        let id_bits = zone_count.next_power_of_two().trailing_zeros() as usize;
        assert!(offset_bits + id_bits.max(1) <= width, "zone id + offset must fit in the bus");
        WorkingZone {
            width,
            offset_bits,
            zones: vec![0; zone_count],
            lru: vec![0; zone_count],
            tick: 0,
            prev_lines: 0,
        }
    }

    fn find_zone(&self, word: u64) -> Option<(usize, u64)> {
        for (i, &base) in self.zones.iter().enumerate() {
            let offset = word.wrapping_sub(base);
            if offset < (1u64 << self.offset_bits) {
                return Some((i, offset));
            }
        }
        None
    }
}

impl BusCodec for WorkingZone {
    fn line_count(&self) -> usize {
        self.width + 1
    }

    fn encode(&mut self, word: u64) -> u64 {
        self.tick += 1;
        let m = mask(self.width);
        let word = word & m;
        let lines = match self.find_zone(word) {
            Some((zone, offset)) => {
                self.lru[zone] = self.tick;
                let gray = offset ^ (offset >> 1);
                let payload = ((zone as u64) << self.offset_bits) | gray;
                payload | (1 << self.width)
            }
            None => {
                // Miss: transmit in full, install as new zone base (LRU).
                let victim =
                    (0..self.zones.len()).min_by_key(|&i| self.lru[i]).expect("at least one zone");
                self.zones[victim] = word;
                self.lru[victim] = self.tick;
                word
            }
        };
        self.prev_lines = lines;
        lines
    }

    fn decode(&mut self, lines: u64) -> u64 {
        self.tick += 1;
        let m = mask(self.width);
        if lines >> self.width & 1 == 1 {
            let payload = lines & m;
            let zone = (payload >> self.offset_bits) as usize;
            let gray = payload & mask(self.offset_bits);
            let mut offset = gray;
            let mut shift = 1;
            while shift < self.offset_bits {
                offset ^= offset >> shift;
                shift <<= 1;
            }
            self.lru[zone] = self.tick;
            (self.zones[zone] + offset) & m
        } else {
            let word = lines & m;
            let victim =
                (0..self.zones.len()).min_by_key(|&i| self.lru[i]).expect("at least one zone");
            self.zones[victim] = word;
            self.lru[victim] = self.tick;
            word
        }
    }

    fn name(&self) -> &'static str {
        "working-zone"
    }
}

// ---------------------------------------------------------------------

/// The Beach code (Benini et al.): a trace-driven, cluster-wise
/// re-encoding. Bus lines are grouped into clusters of correlated lines;
/// within each cluster a bijective code is chosen that gives small
/// Hamming distance to the transitions that the training trace makes
/// often.
#[derive(Debug, Clone)]
pub struct BeachCode {
    width: usize,
    clusters: Vec<Vec<usize>>,
    /// Per cluster: forward permutation over `2^k` values.
    forward: Vec<Vec<u64>>,
    inverse: Vec<Vec<u64>>,
}

impl BeachCode {
    /// Trains a Beach code on an address trace. Lines are clustered by
    /// absolute pairwise correlation (greedy agglomeration into clusters
    /// of at most `max_cluster` lines), then each cluster's value stream
    /// gets a greedy minimum-weighted-transition code assignment.
    ///
    /// # Panics
    ///
    /// Panics if `max_cluster > 16` (table blow-up) or the trace is empty.
    pub fn train(width: usize, trace: &[u64], max_cluster: usize) -> Self {
        assert!(max_cluster <= 16, "cluster tables limited to 16 lines");
        assert!(!trace.is_empty(), "Beach training requires a trace");
        // Pairwise line correlation over the trace.
        let bit = |w: u64, i: usize| (w >> i) & 1;
        let n = trace.len() as f64;
        let mut means = vec![0.0f64; width];
        for &w in trace {
            for (i, m) in means.iter_mut().enumerate() {
                *m += bit(w, i) as f64;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut corr = vec![vec![0.0f64; width]; width];
        for i in 0..width {
            for j in i + 1..width {
                let mut cov = 0.0;
                for &w in trace {
                    cov += (bit(w, i) as f64 - means[i]) * (bit(w, j) as f64 - means[j]);
                }
                cov /= n;
                let si = (means[i] * (1.0 - means[i])).sqrt();
                let sj = (means[j] * (1.0 - means[j])).sqrt();
                let c = if si * sj > 1e-9 { (cov / (si * sj)).abs() } else { 0.0 };
                corr[i][j] = c;
                corr[j][i] = c;
            }
        }
        // Greedy clustering: repeatedly seed with the most correlated free
        // pair, grow to max_cluster by best average correlation.
        let mut assigned = vec![false; width];
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        loop {
            let mut best: Option<(f64, usize, usize)> = None;
            for i in 0..width {
                for j in i + 1..width {
                    if assigned[i] || assigned[j] {
                        continue;
                    }
                    if best.is_none_or(|(c, _, _)| corr[i][j] > c) {
                        best = Some((corr[i][j], i, j));
                    }
                }
            }
            let Some((_, i, j)) = best else { break };
            let mut cluster = vec![i, j];
            assigned[i] = true;
            assigned[j] = true;
            while cluster.len() < max_cluster {
                let cand = (0..width).filter(|&k| !assigned[k]).max_by(|&a, &b| {
                    let ca: f64 = cluster.iter().map(|&c| corr[a][c]).sum();
                    let cb: f64 = cluster.iter().map(|&c| corr[b][c]).sum();
                    ca.partial_cmp(&cb).expect("finite")
                });
                match cand {
                    Some(k) => {
                        assigned[k] = true;
                        cluster.push(k);
                    }
                    None => break,
                }
            }
            cluster.sort_unstable();
            clusters.push(cluster);
        }
        for i in 0..width {
            if !assigned[i] {
                clusters.push(vec![i]);
            }
        }
        // Per-cluster greedy re-encoding from the transition-frequency
        // graph.
        let mut forward = Vec::with_capacity(clusters.len());
        let mut inverse = Vec::with_capacity(clusters.len());
        for cluster in &clusters {
            let k = cluster.len();
            let size = 1usize << k;
            let extract = |w: u64| -> u64 {
                cluster
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (pos, &line)| acc | (((w >> line) & 1) << pos))
            };
            // Transition frequencies between cluster values.
            let mut freq: HashMap<(u64, u64), u64> = HashMap::new();
            let mut occur: HashMap<u64, u64> = HashMap::new();
            let mut prev: Option<u64> = None;
            for &w in trace {
                let v = extract(w);
                *occur.entry(v).or_default() += 1;
                if let Some(p) = prev {
                    if p != v {
                        let key = if p < v { (p, v) } else { (v, p) };
                        *freq.entry(key).or_default() += 1;
                    }
                }
                prev = Some(v);
            }
            // Greedy assignment: values by descending occurrence; each
            // takes the free code minimizing weighted Hamming to
            // already-placed neighbours.
            let mut values: Vec<u64> = occur.keys().copied().collect();
            // Tie-break equal occurrence counts by value: the map's
            // iteration order is seeded per process and must not leak
            // into the code assignment.
            values.sort_by_key(|&v| (std::cmp::Reverse(occur[&v]), v));
            let mut fwd = vec![u64::MAX; size];
            let mut used = vec![false; size];
            let mut placed: Vec<(u64, u64)> = Vec::new(); // (value, code)
            let mut neighbours: Vec<(u64, f64)> = Vec::new(); // (code, frequency)
            for &v in &values {
                // The placed values `v` ever switches with, in placement
                // order, looked up once rather than once per free code.
                neighbours.clear();
                for &(pv, pc) in &placed {
                    let key = if pv < v { (pv, v) } else { (v, pv) };
                    if let Some(&f) = freq.get(&key) {
                        neighbours.push((pc, f as f64));
                    }
                }
                let mut best_code = 0u64;
                let mut best_cost = f64::INFINITY;
                for code in 0..size as u64 {
                    if used[code as usize] {
                        continue;
                    }
                    let mut cost = 0.0;
                    for &(pc, f) in &neighbours {
                        cost += f * (pc ^ code).count_ones() as f64;
                    }
                    if cost < best_cost {
                        best_cost = cost;
                        best_code = code;
                    }
                }
                fwd[v as usize] = best_code;
                used[best_code as usize] = true;
                placed.push((v, best_code));
            }
            // Unseen values: fill with remaining codes (identity-seeking).
            for v in 0..size {
                if fwd[v] == u64::MAX {
                    let code = if !used[v] {
                        v as u64
                    } else {
                        (0..size as u64).find(|&c| !used[c as usize]).expect("bijection")
                    };
                    fwd[v] = code;
                    used[code as usize] = true;
                }
            }
            let mut inv = vec![0u64; size];
            for (v, &c) in fwd.iter().enumerate() {
                inv[c as usize] = v as u64;
            }
            forward.push(fwd);
            inverse.push(inv);
        }
        BeachCode { width, clusters, forward, inverse }
    }

    fn map(&self, word: u64, tables: &[Vec<u64>]) -> u64 {
        let mut out = 0u64;
        for (ci, cluster) in self.clusters.iter().enumerate() {
            let v = cluster
                .iter()
                .enumerate()
                .fold(0u64, |acc, (pos, &line)| acc | (((word >> line) & 1) << pos));
            let coded = tables[ci][v as usize];
            for (pos, &line) in cluster.iter().enumerate() {
                out |= ((coded >> pos) & 1) << line;
            }
        }
        out
    }
}

impl BusCodec for BeachCode {
    fn line_count(&self) -> usize {
        self.width
    }

    fn encode(&mut self, word: u64) -> u64 {
        self.map(word & mask(self.width), &self.forward)
    }

    fn decode(&mut self, lines: u64) -> u64 {
        self.map(lines & mask(self.width), &self.inverse)
    }

    fn name(&self) -> &'static str {
        "beach"
    }
}

// ---------------------------------------------------------------------

/// T0 combined with Bus-Invert (the survey's "several variants of the T0
/// code... may incorporate the Bus-Invert principle"): in-sequence words
/// freeze the bus behind an INC line; out-of-sequence words are
/// transmitted with Bus-Invert polarity selection. Two redundant lines.
#[derive(Debug, Clone)]
pub struct T0BusInvert {
    width: usize,
    prev_word: Option<u64>,
    prev_lines: u64,
}

impl T0BusInvert {
    /// A T0+BI codec over `width` data lines (+INC, +INV).
    pub fn new(width: usize) -> Self {
        T0BusInvert { width, prev_word: None, prev_lines: 0 }
    }
}

impl BusCodec for T0BusInvert {
    fn line_count(&self) -> usize {
        self.width + 2
    }

    fn encode(&mut self, word: u64) -> u64 {
        let m = mask(self.width);
        let inc_bit = 1u64 << self.width;
        let inv_bit = 1u64 << (self.width + 1);
        let word = word & m;
        let lines = match self.prev_word {
            Some(p) if word == (p + 1) & m => {
                // Freeze data and INV, raise INC.
                (self.prev_lines & (m | inv_bit)) | inc_bit
            }
            _ => {
                let prev_data = self.prev_lines & m;
                let toggles = (word ^ prev_data).count_ones() as usize;
                if 2 * toggles > self.width {
                    (!word & m) | inv_bit
                } else {
                    word
                }
            }
        };
        self.prev_word = Some(word);
        self.prev_lines = lines;
        lines
    }

    fn decode(&mut self, lines: u64) -> u64 {
        let m = mask(self.width);
        let inc = lines >> self.width & 1 == 1;
        let inv = lines >> (self.width + 1) & 1 == 1;
        let word = if inc {
            (self.prev_word.unwrap_or(0) + 1) & m
        } else if inv {
            !lines & m
        } else {
            lines & m
        };
        self.prev_word = Some(word);
        word
    }

    fn name(&self) -> &'static str {
        "t0+bus-invert"
    }
}

// ---------------------------------------------------------------------

/// Synthetic address-trace generators for the §III-G experiments.
pub mod traces {
    use hlpower_rng::Rng;

    /// Purely sequential addresses.
    pub fn sequential(start: u64, len: usize) -> Vec<u64> {
        (0..len as u64).map(|i| start + i).collect()
    }

    /// Uniform random words (data-bus regime).
    pub fn random(seed: u64, width: usize, len: usize) -> Vec<u64> {
        let mut rng = Rng::seed_from_u64(seed);
        let m = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
        (0..len).map(|_| rng.next_u64() & m).collect()
    }

    /// Interleaved sequential accesses to `arrays` distinct arrays — the
    /// working-zone regime (in-sequence per array, but the bus sees the
    /// interleave).
    pub fn interleaved_arrays(seed: u64, arrays: usize, len: usize) -> Vec<u64> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut cursors: Vec<u64> = (0..arrays as u64).map(|a| a * 0x10000).collect();
        (0..len)
            .map(|_| {
                let a = rng.gen_range(0..arrays);
                let addr = cursors[a];
                cursors[a] += 1;
                addr
            })
            .collect()
    }

    /// An embedded-software-style trace: a few hot loops (strongly
    /// block-correlated addresses) with occasional far jumps — the Beach
    /// regime.
    pub fn embedded(seed: u64, len: usize) -> Vec<u64> {
        let mut rng = Rng::seed_from_u64(seed);
        let loops: Vec<(u64, u64)> = vec![(0x4000, 12), (0x8A00, 20), (0x1200, 6), (0xC340, 30)];
        let mut out = Vec::with_capacity(len);
        let mut li = 0usize;
        let mut pos = 0u64;
        for _ in 0..len {
            let (base, span) = loops[li];
            out.push(base + pos);
            pos += 1;
            if pos >= span {
                pos = 0;
                if rng.gen_bool(0.3) {
                    li = rng.gen_range(0..loops.len());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_round_trip(mut enc: Box<dyn BusCodec>, mut dec: Box<dyn BusCodec>, words: &[u64]) {
        for &w in words {
            let lines = enc.encode(w);
            assert_eq!(dec.decode(lines), w, "{} failed on {w:#x}", enc.name());
        }
    }

    #[test]
    fn all_codecs_round_trip_random_words() {
        let words = traces::random(1, 16, 2000);
        check_round_trip(Box::new(Unencoded::new(16)), Box::new(Unencoded::new(16)), &words);
        check_round_trip(Box::new(BusInvert::new(16)), Box::new(BusInvert::new(16)), &words);
        check_round_trip(Box::new(GrayCode::new(16)), Box::new(GrayCode::new(16)), &words);
        check_round_trip(Box::new(T0Code::new(16)), Box::new(T0Code::new(16)), &words);
        check_round_trip(
            Box::new(WorkingZone::new(16, 4, 8)),
            Box::new(WorkingZone::new(16, 4, 8)),
            &words,
        );
        let beach = BeachCode::train(16, &words, 8);
        check_round_trip(Box::new(beach.clone()), Box::new(beach), &words);
    }

    #[test]
    fn bus_invert_bounds_transitions() {
        // Worst case: alternating all-zeros / all-ones. Unencoded: 16
        // transitions per word; Bus-Invert: at most N/2 + 1.
        let words: Vec<u64> = (0..100).map(|i| if i % 2 == 0 { 0 } else { 0xFFFF }).collect();
        let t_plain = transitions_per_word(
            Box::new(Unencoded::new(16)),
            Box::new(Unencoded::new(16)),
            &words,
        );
        let t_bi = transitions_per_word(
            Box::new(BusInvert::new(16)),
            Box::new(BusInvert::new(16)),
            &words,
        );
        assert_eq!(t_plain, 16.0);
        assert!(t_bi <= 9.0, "t_bi = {t_bi}");
    }

    #[test]
    fn gray_gives_one_transition_on_sequential() {
        let words = traces::sequential(1000, 500);
        let t =
            transitions_per_word(Box::new(GrayCode::new(16)), Box::new(GrayCode::new(16)), &words);
        assert!((t - 1.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn t0_gives_zero_transitions_on_sequential() {
        let words = traces::sequential(42, 500);
        let t = transitions_per_word(Box::new(T0Code::new(16)), Box::new(T0Code::new(16)), &words);
        // First word drives the bus once; afterwards INC stays high and
        // data lines freeze: asymptotically zero.
        assert!(t < 0.02, "t = {t}");
    }

    #[test]
    fn working_zone_beats_gray_on_interleaved_arrays() {
        let words = traces::interleaved_arrays(3, 3, 3000);
        let t_gray =
            transitions_per_word(Box::new(GrayCode::new(20)), Box::new(GrayCode::new(20)), &words);
        let t_t0 =
            transitions_per_word(Box::new(T0Code::new(20)), Box::new(T0Code::new(20)), &words);
        let t_wz = transitions_per_word(
            Box::new(WorkingZone::new(20, 4, 10)),
            Box::new(WorkingZone::new(20, 4, 10)),
            &words,
        );
        assert!(t_wz < t_gray, "wz {t_wz} vs gray {t_gray}");
        assert!(t_wz < t_t0, "wz {t_wz} vs t0 {t_t0}");
    }

    #[test]
    fn beach_beats_unencoded_on_embedded_trace() {
        let train = traces::embedded(5, 4000);
        let test = traces::embedded(6, 4000);
        let beach = BeachCode::train(16, &train, 8);
        let t_plain =
            transitions_per_word(Box::new(Unencoded::new(16)), Box::new(Unencoded::new(16)), &test);
        let t_beach = transitions_per_word(Box::new(beach.clone()), Box::new(beach), &test);
        assert!(t_beach < 0.9 * t_plain, "beach {t_beach} vs unencoded {t_plain}");
    }

    /// Pins one trained code: the greedy assignment's costs, and so its
    /// tables, must not move when its scoring is reorganized.
    #[test]
    fn beach_training_is_pinned() {
        let beach = BeachCode::train(8, &traces::random(7, 8, 300), 4);
        assert_eq!(beach.clusters, [[0, 1, 4, 5], [2, 3, 6, 7]]);
        assert_eq!(
            beach.forward,
            [
                [2, 1, 9, 4, 11, 15, 13, 14, 7, 12, 6, 10, 3, 8, 0, 5],
                [8, 6, 1, 0, 4, 2, 10, 14, 7, 13, 12, 5, 11, 15, 9, 3],
            ]
        );
    }

    #[test]
    fn bus_invert_never_worse_than_half_plus_one() {
        let words = traces::random(9, 16, 3000);
        let mut enc = BusInvert::new(16);
        let mut prev = enc.encode(words[0]);
        for &w in &words[1..] {
            let lines = enc.encode(w);
            assert!((prev ^ lines).count_ones() <= 9, "more than N/2 + 1 transitions");
            prev = lines;
        }
    }

    #[test]
    fn t0bi_round_trips_and_combines_strengths() {
        // Round trip on random words.
        let words = traces::random(4, 16, 1500);
        check_round_trip(Box::new(T0BusInvert::new(16)), Box::new(T0BusInvert::new(16)), &words);
        // Sequential: behaves like T0 (near zero transitions).
        let seq = traces::sequential(10, 500);
        let t = transitions_per_word(
            Box::new(T0BusInvert::new(16)),
            Box::new(T0BusInvert::new(16)),
            &seq,
        );
        assert!(t < 0.02, "t = {t}");
        // Random: behaves like Bus-Invert (bounded below plain).
        let t_rand = transitions_per_word(
            Box::new(T0BusInvert::new(16)),
            Box::new(T0BusInvert::new(16)),
            &words,
        );
        let t_plain = transitions_per_word(
            Box::new(Unencoded::new(16)),
            Box::new(Unencoded::new(16)),
            &words,
        );
        assert!(t_rand < t_plain, "{t_rand} vs {t_plain}");
    }

    #[test]
    fn gray_decode_is_inverse_for_wide_buses() {
        let mut g = GrayCode::new(32);
        for w in [0u64, 1, 0xFFFF_FFFF, 0x1234_5678, 0xDEAD_BEEF] {
            let e = g.encode(w);
            assert_eq!(g.decode(e), w);
        }
    }
}
