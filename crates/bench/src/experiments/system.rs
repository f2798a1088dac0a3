//! System-level experiments: predictive shutdown (Fig. 3 / §III-B) and
//! bus encoding (§III-G).

use hlpower::optimize::buscode::{
    self, traces, BeachCode, BusCodec, BusInvert, GrayCode, T0BusInvert, T0Code, Unencoded,
    WorkingZone,
};
use hlpower::optimize::shutdown::{self, policies::*};
use hlpower::sw::{workloads, Machine, MachineConfig};
use hlpower_obs::json;

use crate::report::ExperimentResult;

/// Fig. 3 + §III-B: shutdown policies on a bursty event workload.
pub fn shutdown_policies() -> ExperimentResult {
    let device = shutdown::DeviceModel::default();
    let workload = shutdown::bursty_workload(42, 6000);
    let bound = shutdown::improvement_upper_bound(&workload);
    let mut lines = vec![format!(
        "workload: 6000 episodes, improvement bound 1 + T_I/T_A = {bound:.1}x, break-even {:.1}",
        device.breakeven()
    )];
    let mut rows = Vec::new();
    let mut run = |name: &'static str, policy: &mut dyn ShutdownPolicy| {
        let r = shutdown::simulate(policy, &device, &workload);
        lines.push(format!(
            "{name:<24} power {:>6.3}  improvement {:>5.1}x  delay penalty {:>5.2}%  shutdowns {:>4.0}%",
            r.average_power,
            r.improvement,
            100.0 * r.performance_penalty,
            100.0 * r.shutdown_fraction
        ));
        rows.push(json!({"policy": name, "power": r.average_power,
                          "improvement": r.improvement,
                          "penalty": r.performance_penalty}));
    };
    run("always-on", &mut AlwaysOn);
    run("static 1x break-even", &mut StaticTimeout { timeout: device.breakeven() });
    run("static 4x break-even", &mut StaticTimeout { timeout: 4.0 * device.breakeven() });
    run("Srivastava threshold", &mut SrivastavaThreshold { active_threshold: 1.0 });
    run("Srivastava regression", &mut SrivastavaRegression::new(&device, 64));
    run("Hwang-Wu", &mut HwangWu::new(&device, 0.5, false));
    run("Hwang-Wu + prewakeup", &mut HwangWu::new(&device, 0.5, true));
    run("oracle", &mut Oracle::new(&device, &workload));
    ExperimentResult {
        id: "F3",
        title: "Shutdown policies (Fig. 3, Srivastava, Hwang-Wu)",
        paper:
            "predictive shutdown up to ~38x improvement at ~3% performance cost on X-server traces",
        lines,
        json: json!({"bound": bound, "policies": rows}),
    }
}

/// §III-G: bus encoding across stream families.
pub fn bus_encoding() -> ExperimentResult {
    const WIDTH: usize = 20;
    // A real program-counter trace from the architectural simulator (the
    // §III-G observation that processor addresses are often consecutive).
    let pc_trace: Vec<u64> = {
        let mut m = Machine::new(MachineConfig::default());
        let stats = m.run(&workloads::fir(64, 8), 100_000_000).expect("halts");
        stats.trace.iter().map(|&pc| pc as u64).collect()
    };
    let stream_sets: Vec<(&str, Vec<u64>)> = vec![
        ("random data", traces::random(1, WIDTH, 6000)),
        ("sequential", traces::sequential(0x1000, 6000)),
        ("interleaved arrays", traces::interleaved_arrays(2, 3, 6000)),
        ("embedded trace", traces::embedded(3, 6000)),
        ("program counter", pc_trace),
    ];
    let mut lines = vec![format!(
        "{:<20} {:>10} {:>10} {:>7} {:>7} {:>7} {:>12} {:>7}",
        "stream (trans/word)",
        "unencoded",
        "businvert",
        "gray",
        "t0",
        "t0+bi",
        "workingzone",
        "beach"
    )];
    let mut rows = Vec::new();
    for (name, words) in &stream_sets {
        let train: Vec<u64> = words.iter().take(3000).copied().collect();
        let beach = BeachCode::train(WIDTH, &train, 8);
        let pairs: Vec<(Box<dyn BusCodec>, Box<dyn BusCodec>)> = vec![
            (Box::new(Unencoded::new(WIDTH)), Box::new(Unencoded::new(WIDTH))),
            (Box::new(BusInvert::new(WIDTH)), Box::new(BusInvert::new(WIDTH))),
            (Box::new(GrayCode::new(WIDTH)), Box::new(GrayCode::new(WIDTH))),
            (Box::new(T0Code::new(WIDTH)), Box::new(T0Code::new(WIDTH))),
            (Box::new(T0BusInvert::new(WIDTH)), Box::new(T0BusInvert::new(WIDTH))),
            (Box::new(WorkingZone::new(WIDTH, 4, 10)), Box::new(WorkingZone::new(WIDTH, 4, 10))),
            (Box::new(beach.clone()), Box::new(beach)),
        ];
        let mut cells = Vec::new();
        for (enc, dec) in pairs {
            cells.push(buscode::transitions_per_word(enc, dec, words));
        }
        lines.push(format!(
            "{name:<20} {:>10.3} {:>10.3} {:>7.3} {:>7.3} {:>7.3} {:>12.3} {:>7.3}",
            cells[0], cells[1], cells[2], cells[3], cells[4], cells[5], cells[6]
        ));
        rows.push(json!({"stream": *name, "unencoded": cells[0], "bus_invert": cells[1],
                          "gray": cells[2], "t0": cells[3], "t0_bus_invert": cells[4],
                          "working_zone": cells[5], "beach": cells[6]}));
    }
    ExperimentResult {
        id: "S3G",
        title: "Bus encoding across stream families",
        paper: "Bus-Invert <= N/2 on random; Gray -> 1 and T0 -> 0 on sequences; Working-Zone on interleaves; Beach on embedded traces",
        lines,
        json: json!(rows),
    }
}
