//! The four workloads: their circuits and their seeded request streams.
//! Everything here is a pure function of the workload and `--seed`, so
//! the parent commit and a change see the same offered load.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hlpower::netlist::{emit_verilog, emitted_net_names, gen, ingest_auto, Netlist, NodeKind};
use hlpower_obs::json::escaped;
use hlpower_rng::Rng;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeSmall,
    ServeLarge,
    ServeCold,
    OfflineRepro,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ServeSmall, Workload::ServeLarge, Workload::ServeCold, Workload::OfflineRepro];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve_small",
            Workload::ServeLarge => "serve_large",
            Workload::ServeCold => "serve_cold",
            Workload::OfflineRepro => "offline_repro",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop requests generated per second of the loop: well above
    /// the rate the workload reaches on one connection, so no round runs
    /// past its share of the list and `serve_cold` never sends a text
    /// twice.
    pub fn max_rate(self) -> f64 {
        match self {
            Workload::ServeSmall => 1000.0,
            Workload::ServeLarge => 250.0,
            Workload::ServeCold => 160.0,
            Workload::OfflineRepro => 0.0,
        }
    }

    /// Requests in one block of the workload's mix.
    pub fn block_len(self) -> usize {
        match self {
            Workload::ServeSmall => 16,
            Workload::ServeLarge => 60,
            Workload::ServeCold => 20,
            Workload::OfflineRepro => crate::offline::CYCLE,
        }
    }

    /// Set-ups at each of a run's three set-up points: three where one
    /// takes well under a second, one on `serve_large`, whose warm-up
    /// ingests 2,000 to 2,800-gate circuits for over two seconds.
    pub fn setups_per_point(self) -> usize {
        match self {
            Workload::ServeLarge => 1,
            _ => 3,
        }
    }

    /// The server's `--cache-mb`, when it differs from the default.
    pub fn cache_mb(self) -> Option<usize> {
        match self {
            Workload::ServeCold => Some(8),
            _ => None,
        }
    }
}

/// Monte-Carlo settings of one estimate request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Spec {
    pub seed: u64,
    pub batch_cycles: usize,
    pub max_batches: usize,
    pub glitch: bool,
    pub width: usize,
    /// Run every batch (`target_relative_error = 0`) instead of stopping
    /// at the server's default 1% target.
    pub fixed_work: bool,
}

impl Spec {
    /// The server's defaults: 60 batches of 60 cycles, zero-delay, 64 lanes.
    pub fn default_with_seed(seed: u64) -> Spec {
        Spec {
            seed,
            batch_cycles: 60,
            max_batches: 60,
            glitch: false,
            width: 64,
            fixed_work: false,
        }
    }
}

/// One circuit: its name, the source text sent to the server, and the
/// netlist the in-process reference simulates.
#[derive(Debug)]
pub struct Circuit {
    pub name: String,
    pub source: Arc<str>,
    pub netlist: Arc<Netlist>,
}

/// One `POST /estimate`: the wire bytes, the circuit whose netlist its
/// reference simulates, its Monte-Carlo settings and its class.
#[derive(Debug, Clone)]
pub struct Request {
    pub circuit: usize,
    /// Requests of one class cost the same work: the same circuit (or,
    /// on `serve_cold`, the same base circuit or size slot) and the same
    /// options. Latency is summarised per class.
    pub class: usize,
    pub spec: Spec,
    pub bytes: Arc<Vec<u8>>,
    /// The netlist is structurally identical to one the server has
    /// already been sent (the same text, or a renaming of it).
    pub repeat: bool,
}

/// Everything a serve workload sends.
#[derive(Debug)]
pub struct Plan {
    pub circuits: Vec<Circuit>,
    /// The name of every request class.
    pub classes: Vec<String>,
    /// Each corpus circuit once, sent before timing starts.
    pub warmup: Vec<Request>,
    /// The timed requests, in blocks of [`Plan::block`] requests that
    /// each hold the same mix in their own order.
    pub requests: Vec<Request>,
    pub block: usize,
}

/// Class names, each given the next index the first time it is seen.
#[derive(Debug, Default)]
struct Classes(Vec<String>);

impl Classes {
    fn id(&mut self, name: String) -> usize {
        match self.0.iter().position(|c| *c == name) {
            Some(k) => k,
            None => {
                self.0.push(name);
                self.0.len() - 1
            }
        }
    }
}

/// The directory holding the workspace `Cargo.toml` and `examples/`,
/// found by walking up from the current directory.
pub fn repo_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    cwd.ancestors()
        .find(|d| d.join("examples/gray_counter4.v").is_file() && d.join("crates/serve").is_dir())
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("no hlpower checkout at or above {}", cwd.display()))
}

/// The seed of every run's request order and circuit sizes. It is
/// frozen, so every run offers the same work: `--seed` varies what is
/// computed (Monte-Carlo seeds, net names, random wiring), never how
/// much.
const PATTERN_SEED: u64 = 0x10ad_5eed;

/// A seeded shuffle: request mixes are drawn in blocks of fixed
/// composition, so every block offers the same mix in its own order.
fn shuffled<T>(mut block: Vec<T>, rng: &mut Rng) -> Vec<T> {
    for k in (1..block.len()).rev() {
        block.swap(k, rng.gen_range(0..=k));
    }
    block
}

fn multiplier(bits: usize) -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", bits);
    let b = nl.input_bus("b", bits);
    let p = gen::array_multiplier(&mut nl, &a, &b);
    nl.output_bus("p", &p);
    nl
}

/// A direct-form FIR with array-multiplier taps (sequential: its delay
/// line is a chain of flip-flops).
fn fir(taps: &[u64], width: usize) -> Netlist {
    let mut nl = Netlist::new();
    let x = nl.input_bus("x", width);
    let y = gen::fir_filter(&mut nl, &x, taps, false);
    nl.output_bus("y", &y);
    nl
}

pub fn random_logic(seed: u64, inputs: usize, gates: usize, outputs: usize) -> Netlist {
    let mut nl = Netlist::new();
    gen::random_logic(&mut nl, seed, inputs, gates, outputs);
    nl
}

/// The three large shapes of `offline_repro`, shared with the per-layer
/// kernel measurements: a 16-bit array multiplier, an 8-tap FIR and
/// 2,000-gate random logic.
pub fn offline_shapes() -> Vec<(&'static str, Netlist)> {
    vec![
        ("mult16", multiplier(16)),
        ("fir8", fir(&[13, 7, 25, 11, 5, 19, 3, 9], 8)),
        ("rand2000", random_logic(2000, 32, 2000, 16)),
    ]
}

fn circuit(name: &str, netlist: Netlist) -> Circuit {
    let source: Arc<str> = emit_verilog(&netlist, name).into();
    Circuit { name: name.to_string(), source, netlist: Arc::new(netlist) }
}

/// The small corpus (every circuit at most 600 gates): the six
/// `benchmark_suite` generators as Verilog plus the two example files as
/// written. With `as_verilog`, the example files are re-emitted as
/// Verilog so they can be renamed.
pub fn small_corpus(as_verilog: bool) -> Result<Vec<Circuit>, String> {
    let root = repo_root()?;
    let mut out: Vec<Circuit> =
        gen::benchmark_suite().into_iter().map(|(name, nl)| circuit(name, nl)).collect();
    for file in ["gray_counter4.v", "majority.edf"] {
        let path = root.join("examples").join(file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("could not read {}: {e}", path.display()))?;
        let (_, nl) = ingest_auto(Some(file), &text).map_err(|e| format!("{file}: {e}"))?;
        let stem = file.split('.').next().unwrap_or(file);
        out.push(if as_verilog {
            circuit(stem, nl)
        } else {
            Circuit { name: stem.to_string(), source: text.into(), netlist: Arc::new(nl) }
        });
    }
    Ok(out)
}

/// The large corpus (700 to 2,800 gates).
fn large_corpus() -> Vec<Circuit> {
    vec![
        circuit("mult8", multiplier(8)),
        circuit("mult16", multiplier(16)),
        circuit("fir8", fir(&[13, 7, 25, 11, 5, 19, 3, 9], 8)),
        circuit("rand2000", random_logic(2000, 32, 2000, 16)),
    ]
}

/// The four request seeds of circuit `item`: requests draw their seed
/// from this set, so references are shared between requests.
fn item_seed(run_seed: u64, item: usize, k: u64) -> u64 {
    Rng::seed_from_u64(run_seed).split(0x5eed_0000 + item as u64).split(k).next_u64()
}

/// The HTTP/1.1 request for `POST /estimate` with `source` and `spec`.
pub fn http_request(source: &str, spec: &Spec) -> Vec<u8> {
    let body = format!(
        "{{\"netlist\": {}, \"seed\": {}, \"options\": {{\"batch_cycles\": {}, \"max_batches\": {}{}}}, \
         \"mode\": \"{}\", \"width\": {}}}",
        escaped(source),
        spec.seed,
        spec.batch_cycles,
        spec.max_batches,
        if spec.fixed_work { ", \"target_relative_error\": 0" } else { "" },
        if spec.glitch { "glitch" } else { "zero_delay" },
        spec.width
    );
    let mut bytes = format!(
        "POST /estimate HTTP/1.1\r\nhost: hlbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// The class of a request for `circuit` with `spec`: what it asks for
/// except the Monte-Carlo seed, which does not change the work.
fn class_name(circuit: &str, spec: &Spec) -> String {
    let mode = if spec.glitch { "glitch." } else { "" };
    format!("{circuit}.{mode}w{}x{}", spec.width, spec.batch_cycles)
}

/// Builds requests for corpus circuits, sharing the bytes of identical
/// ones.
struct Requests<'a> {
    circuits: &'a [Circuit],
    classes: Classes,
    built: HashMap<(usize, Spec), Request>,
}

impl Requests<'_> {
    fn get(&mut self, circuit: usize, spec: Spec) -> Request {
        let (circuits, classes) = (self.circuits, &mut self.classes);
        self.built
            .entry((circuit, spec))
            .or_insert_with(|| {
                let bytes = Arc::new(http_request(&circuits[circuit].source, &spec));
                let class = classes.id(class_name(&circuits[circuit].name, &spec));
                Request { circuit, class, spec, bytes, repeat: true }
            })
            .clone()
    }
}

/// `serve_small`, per block of 16: every small circuit twice, at the
/// server defaults.
fn small_block(reqs: &mut Requests, run_seed: u64, rng: &mut Rng) -> Vec<Request> {
    let n = reqs.circuits.len();
    shuffled((0..2 * n).map(|k| k % n).collect(), rng)
        .into_iter()
        .map(|item| {
            let seed = item_seed(run_seed, item, rng.gen_range(0..4u64));
            reqs.get(item, Spec::default_with_seed(seed))
        })
        .collect()
}

/// `serve_large`, per block of 60: 12 glitch requests (20%) on the one
/// circuit of at most 1,000 gates (`mult8`, index 0); 20 (a third) at
/// 256 lanes x 40 cycles so wide words fill; 28 at the default options,
/// half at 64 and half at 256 lanes. Zero-delay requests spread evenly
/// over the four circuits, each at both widths.
fn large_block(reqs: &mut Requests, run_seed: u64, rng: &mut Rng) -> Vec<Request> {
    let n = reqs.circuits.len();
    let base = Spec::default_with_seed(0);
    let mut block: Vec<(usize, Spec)> = Vec::with_capacity(60);
    block.extend((0..12).map(|_| (0, Spec { glitch: true, ..base })));
    let wide = Spec { batch_cycles: 40, max_batches: 256, width: 256, ..base };
    block.extend((0..20).map(|k| (k % n, wide)));
    let width = |k: usize| if (k / n).is_multiple_of(2) { 64 } else { 256 };
    block.extend((0..28).map(|k| (k % n, Spec { width: width(k), ..base })));
    shuffled(block, rng)
        .into_iter()
        .map(|(item, spec)| {
            let seed = item_seed(run_seed, item, rng.gen_range(0..4u64));
            reqs.get(item, Spec { seed, ..spec })
        })
        .collect()
}

/// Renames every internal net of `source` (the emitted Verilog of `nl`)
/// with a `salt`-derived name. Inputs, outputs, instance order and cell
/// functions are untouched, so the result is structurally identical to
/// `nl` while its text, and so its cache key, is new.
pub fn rename_nets(nl: &Netlist, source: &str, salt: u64) -> String {
    let names = emitted_net_names(nl);
    let ports: Vec<&str> = nl
        .outputs()
        .iter()
        .map(|(name, _)| name.split('[').next().unwrap_or(name))
        .chain(nl.inputs().iter().map(|&i| names[i.index()].as_str()))
        .collect();
    let renames: HashMap<&str, String> = nl
        .node_ids()
        .filter(|&id| !matches!(nl.kind(id), NodeKind::Input))
        .map(|id| names[id.index()].as_str())
        .filter(|name| !ports.contains(name))
        .enumerate()
        .map(|(k, name)| (name, format!("n{salt:x}_{k}")))
        .collect();
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len() + source.len() / 4);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let start = i;
        if c == b'"' {
            // Attribute strings (group names) are copied verbatim.
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                i += 1;
            }
            i = (i + 1).min(bytes.len());
        } else if c == b'\\' {
            // Escaped identifiers run to the next whitespace.
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                i += 1;
            }
        } else if c.is_ascii_digit() {
            // Numbers, including sized literals such as 1'b0 whose digits
            // would otherwise read as an identifier (`b0`).
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'\'' {
                i += 1;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            while i < bytes.len()
                && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
            {
                i += 1;
            }
            if let Some(new) = renames.get(&source[start..i]) {
                out.push_str(new);
                continue;
            }
        } else {
            // Any other character, whole (the text may hold UTF-8).
            i += source[i..].chars().next().map_or(1, char::len_utf8);
        }
        out.push_str(&source[start..i]);
    }
    out
}

/// `serve_cold`, per block of 20: every source text is new. Ten are net
/// renamings of small corpus circuits (structural repeats of a circuit
/// the warm-up sent), cycling through the corpus; ten are fresh seeded
/// structures, one at the centre of each tenth of a log-uniform 50 to 800
/// gate range (a seeded FIR filter where one lands in that tenth).
/// Fresh circuits are appended to `circuits`. A renaming's class is its
/// base circuit, a fresh circuit's its tenth of the range.
fn cold_block(
    circuits: &mut Vec<Circuit>,
    classes: &mut Classes,
    bases: usize,
    run_seed: u64,
    block: u64,
) -> Vec<Request> {
    let mut pattern = Rng::seed_from_u64(PATTERN_SEED).split(0xc01d_0000).split(block);
    let mut content = Rng::seed_from_u64(run_seed).split(0xc01d_0000).split(block);
    let mut out = Vec::with_capacity(20);
    for slot in shuffled((0..20).collect::<Vec<usize>>(), &mut pattern) {
        let (circuit, source, repeat, class) = if slot < 10 {
            let base = (block as usize * 10 + slot) % bases;
            let source =
                rename_nets(&circuits[base].netlist, &circuits[base].source, content.next_u64());
            (base, Arc::<str>::from(source), true, format!("renamed.{}", circuits[base].name))
        } else {
            // The geometric centre of this slot's tenth of the range.
            let (lo, hi) = (50f64.ln(), 800f64.ln());
            let bin = |t: f64| (lo + t / 10.0 * (hi - lo)).exp() as usize;
            let tenth = (slot - 10) as f64;
            let gates = bin(tenth + 0.5);
            let taps: Vec<u64> =
                (0..pattern.gen_range(2..=4usize)).map(|_| content.gen_range(1..32u64)).collect();
            let width = pattern.gen_range(3..=6usize);
            let (inputs, outputs) =
                (pattern.gen_range(8..=24usize), pattern.gen_range(4..=12usize));
            // Slots 11, 14 and 17 try a FIR filter; it stands only if its
            // size falls in the slot's tenth.
            let nl = (slot % 3 == 2)
                .then(|| fir(&taps, width))
                .filter(|nl| (bin(tenth)..=bin(tenth + 1.0)).contains(&nl.gate_count()))
                .unwrap_or_else(|| random_logic(content.next_u64(), inputs, gates, outputs));
            let c = circuit(&format!("fresh{}", circuits.len()), nl);
            let source = Arc::clone(&c.source);
            circuits.push(c);
            (circuits.len() - 1, source, false, format!("fresh.{gates}g"))
        };
        let spec =
            Spec::default_with_seed(item_seed(run_seed, circuit, pattern.gen_range(0..4u64)));
        let bytes = Arc::new(http_request(&source, &spec));
        let class = classes.id(class);
        out.push(Request { circuit, class, spec, bytes, repeat });
    }
    out
}

/// The requests of a serve workload: `blocks` blocks of its mix, after a
/// warm-up of one request per corpus circuit.
pub fn serve_plan(workload: Workload, run_seed: u64, blocks: usize) -> Result<Plan, String> {
    let mut rng = Rng::seed_from_u64(PATTERN_SEED).split(0x313e_0000);
    let (circuits, classes, requests, bases) = match workload {
        Workload::ServeSmall | Workload::ServeLarge => {
            let small = workload == Workload::ServeSmall;
            let circuits = if small { small_corpus(false)? } else { large_corpus() };
            let mut reqs = Requests {
                circuits: &circuits,
                classes: Classes::default(),
                built: HashMap::new(),
            };
            let requests: Vec<Request> = (0..blocks)
                .flat_map(|_| {
                    if small {
                        small_block(&mut reqs, run_seed, &mut rng)
                    } else {
                        large_block(&mut reqs, run_seed, &mut rng)
                    }
                })
                .collect();
            let (classes, bases) = (reqs.classes, circuits.len());
            (circuits, classes, requests, bases)
        }
        Workload::ServeCold => {
            let mut circuits = small_corpus(true)?;
            let mut classes = Classes::default();
            let bases = circuits.len();
            let requests = (0..blocks as u64)
                .flat_map(|b| cold_block(&mut circuits, &mut classes, bases, run_seed, b))
                .collect();
            (circuits, classes, requests, bases)
        }
        Workload::OfflineRepro => return Err("offline_repro sends no requests".into()),
    };
    let block = requests.len() / blocks.max(1);
    let warmup = (0..bases)
        .map(|c| {
            let spec = Spec::default_with_seed(item_seed(run_seed, c, 0));
            let bytes = Arc::new(http_request(&circuits[c].source, &spec));
            Request { circuit: c, class: usize::MAX, spec, bytes, repeat: false }
        })
        .collect();
    Ok(Plan { circuits, classes: classes.0, warmup, requests, block })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlpower::netlist::structurally_equivalent;
    use hlpower_serve::hash_source;

    #[test]
    fn cold_renames_are_structural_repeats_with_new_cache_keys() {
        for (k, base) in small_corpus(true).unwrap().iter().enumerate() {
            let renamed = rename_nets(&base.netlist, &base.source, 0xfeed);
            assert_ne!(hash_source(&renamed), hash_source(&base.source), "circuit {k}");
            let (_, original) = ingest_auto(None, &base.source).unwrap();
            let (_, again) = ingest_auto(None, &renamed).unwrap();
            structurally_equivalent(&original, &again)
                .unwrap_or_else(|e| panic!("circuit {k}: {e}\n{renamed}"));
            structurally_equivalent(&base.netlist, &again).unwrap();
        }
    }

    #[test]
    fn plans_are_a_pure_function_of_the_seed_which_varies_content_not_work() {
        for w in [Workload::ServeSmall, Workload::ServeLarge] {
            let plan = |seed| serve_plan(w, seed, 3).unwrap();
            let (a, again, b) = (plan(1), plan(1), plan(2));
            let bytes = |p: &Plan| p.requests.iter().map(|r| r.bytes.clone()).collect::<Vec<_>>();
            assert_eq!(bytes(&a), bytes(&again), "{w:?}");
            assert_ne!(bytes(&a), bytes(&b), "{w:?}");
            let work = |p: &Plan| {
                p.requests.iter().map(|r| (r.class, Spec { seed: 0, ..r.spec })).collect::<Vec<_>>()
            };
            assert_eq!(work(&a), work(&b), "{w:?}: order and options are frozen");
            assert_eq!(a.classes, b.classes);
        }
    }

    #[test]
    fn cold_blocks_repeat_per_seed_and_never_repeat_a_text() {
        let block = |seed| {
            let mut circuits = small_corpus(true).unwrap();
            let bases = circuits.len();
            cold_block(&mut circuits, &mut Classes::default(), bases, seed, 0)
                .into_iter()
                .map(|r| r.bytes)
                .collect::<Vec<_>>()
        };
        let a = block(3);
        assert_eq!(a, block(3));
        assert_ne!(a, block(4));
        let mut texts = a.clone();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), a.len(), "every cold request text is new");
    }
}
