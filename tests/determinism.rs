//! Golden determinism tests: for **every** scheme, the parallel seed
//! runner produces byte-identical `SimReport`s to the serial path at
//! widths 1, 2 and 8.
//!
//! Identity is checked on the `Debug` rendering of the full report.
//! Rust's `Debug` for `f64` prints the shortest string that round-trips
//! to the exact bits, so string equality here is bit equality for every
//! float in the report, and exact equality for everything else.

use randomcast::{
    run_seeds, run_seeds_parallel, FaultEvent, FaultsConfig, Scheme, SimConfig, SimDuration,
};
use rcast_testkit::{prop_assert, Check, Gen};

const SEEDS: [u64; 3] = [7, 19, 101];
const WIDTHS: [usize; 3] = [1, 2, 8];

fn smoke(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::smoke(scheme, 0);
    cfg.duration = SimDuration::from_secs(60);
    cfg
}

fn assert_parallel_matches_serial(scheme: Scheme) {
    let cfg = smoke(scheme);
    let serial: Vec<String> = run_seeds(&cfg, SEEDS)
        .expect("valid config")
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    for threads in WIDTHS {
        let parallel: Vec<String> = run_seeds_parallel(&cfg, SEEDS, threads)
            .expect("valid config")
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(
            serial, parallel,
            "{scheme}: parallel ({threads} threads) diverged from serial"
        );
    }
}

#[test]
fn dot11_parallel_is_byte_identical() {
    assert_parallel_matches_serial(Scheme::Dot11);
}

#[test]
fn psm_parallel_is_byte_identical() {
    assert_parallel_matches_serial(Scheme::Psm);
}

#[test]
fn psm_no_overhear_parallel_is_byte_identical() {
    assert_parallel_matches_serial(Scheme::PsmNoOverhear);
}

#[test]
fn odpm_parallel_is_byte_identical() {
    assert_parallel_matches_serial(Scheme::Odpm);
}

#[test]
fn rcast_parallel_is_byte_identical() {
    assert_parallel_matches_serial(Scheme::Rcast);
}

/// Fault-injected runs obey the same contract: the fault plan draws
/// from its own RNG stream, so crashes, blackouts and corruption
/// bursts land identically at every thread width, for every scheme.
#[test]
fn fault_matrix_parallel_is_byte_identical() {
    for scheme in Scheme::ALL {
        let mut cfg = smoke(scheme);
        cfg.faults = FaultsConfig {
            crash_prob: 0.3,
            downtime_s: 10.0,
            link_blackouts: 3,
            blackout_s: 8.0,
            corruption_bursts: 2,
            burst_s: 8.0,
            corruption_prob: 0.5,
            ..FaultsConfig::default()
        };
        let serial: Vec<String> = run_seeds(&cfg, SEEDS)
            .expect("valid config")
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        // Faults must actually fire, or this golden pins nothing.
        assert!(
            serial.iter().any(|s| s.contains("crashes: ") && !s.contains("crashes: 0,")),
            "{scheme}: no crash activated in any seed"
        );
        for threads in WIDTHS {
            let parallel: Vec<String> = run_seeds_parallel(&cfg, SEEDS, threads)
                .expect("valid config")
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            assert_eq!(
                serial, parallel,
                "{scheme}: faulted parallel ({threads} threads) diverged from serial"
            );
        }
    }
}

/// One seed run serially and twice at once on two workers: all three
/// reports are byte-identical.
fn same_seed_repeats(cfg: &SimConfig, seed: u64) -> Result<(), String> {
    let serial = format!("{:?}", run_seeds(cfg, [seed]).expect("valid config")[0]);
    for (i, r) in run_seeds_parallel(cfg, [seed, seed], 2)
        .expect("valid config")
        .iter()
        .enumerate()
    {
        if format!("{r:?}") != serial {
            return Err(format!("{}: repeat {i} of seed {seed} diverged", cfg.scheme));
        }
    }
    Ok(())
}

/// The `large` bench tier's 600-node geometry (density-matched to the
/// medium workload) repeats byte for byte. The smoke configs above
/// never fill more than a few grid cells, so this is the only identity
/// point where the spatial fan-out, the churn-scan skip and the
/// per-interval RNG lane run at the populations the scaling gate
/// measures. Short duration: enough intervals for routes, queues and
/// wake cycles to interact, cheap enough for a debug-build CI run.
#[test]
fn large_network_repeats_byte_identically() {
    let mut cfg = SimConfig::paper(Scheme::Rcast, 7, 0.4, 60.0);
    cfg.nodes = 600;
    cfg.area = randomcast::mobility::Area::new(3600.0, 720.0);
    cfg.duration = SimDuration::from_secs(10);
    cfg.traffic.flows = 30;
    same_seed_repeats(&cfg, 7).unwrap();
}

/// Property: under *random* fault scripts and traffic loads (crashes,
/// blackouts, corruption bursts, the ledger on or off), a seed repeats
/// byte for byte, serially and on parallel workers.
#[test]
fn random_fault_and_traffic_interleavings_repeat_identically() {
    Check::new("same-seed runs repeat under random faults/traffic")
        .cases(6)
        .run(|g: &mut Gen| {
            let scheme = [Scheme::Rcast, Scheme::Psm, Scheme::Odpm, Scheme::Dot11]
                [g.usize_range(0, 4)];
            let mut cfg = SimConfig::smoke(scheme, 0);
            cfg.duration = SimDuration::from_secs(g.u64_range(20, 40));
            cfg.traffic.flows = g.u32_range(1, 12);
            cfg.traffic.rate_pps = g.f64_range(0.5, 6.0);
            cfg.obs = g.bool();
            for _ in 0..g.len(0, 3) {
                cfg.faults.script.push(FaultEvent::Crash {
                    node: g.u32_range(0, cfg.nodes - 1),
                    at_s: g.f64_range(1.0, 30.0),
                    down_s: g.f64_range(0.0, 10.0),
                });
            }
            cfg.faults.link_blackouts = g.u32_range(0, 4);
            cfg.faults.blackout_s = g.f64_range(1.0, 8.0);
            cfg.faults.corruption_bursts = g.u32_range(0, 2);
            cfg.faults.burst_s = g.f64_range(1.0, 6.0);
            cfg.faults.corruption_prob = g.f64_range(0.0, 0.4);
            let repeated = same_seed_repeats(&cfg, g.u64_range(1, 1 << 40));
            prop_assert!(
                repeated.is_ok(),
                "{} (flows={}, rate={})",
                repeated.unwrap_err(),
                cfg.traffic.flows,
                cfg.traffic.rate_pps
            );
            Ok(())
        });
}

// ---------------------------------------------------------------------
// Golden-trace conformance (DESIGN.md §11): the rcast-trace/v1 JSONL
// export is byte-identical to checked-in goldens at widths 1, 2 and 8,
// for a plain and a fault-injected pinned seed. Any change to event
// ordering, schema keys, or the simulator's cross-layer behavior under
// these configs shows up as a golden diff — regenerate deliberately
// with `cargo test --test determinism -- --ignored` and review it.
// ---------------------------------------------------------------------

/// The pinned golden workload: small enough to keep the goldens
/// reviewable, rich enough to exercise ATIM, overhearing, forwarding
/// and energy spans. Also expressible on the CLI as
/// `rcast trace --nodes 12 --area 600x300 --duration 10 --flows 3
///  --pause 20 --seed <s>`.
fn golden_config(seed: u64, faults: bool) -> SimConfig {
    let mut cfg = SimConfig::paper(Scheme::Rcast, seed, 0.4, 20.0);
    cfg.nodes = 12;
    cfg.area = randomcast::mobility::Area::new(600.0, 300.0);
    cfg.duration = SimDuration::from_secs(10);
    cfg.traffic.flows = 3;
    cfg.obs = true;
    if faults {
        cfg.faults = FaultsConfig {
            crash_prob: 0.5,
            downtime_s: 3.0,
            link_blackouts: 2,
            blackout_s: 2.0,
            corruption_bursts: 1,
            burst_s: 2.0,
            corruption_prob: 0.5,
            ..FaultsConfig::default()
        };
    }
    cfg
}

/// The two pinned golden cases: `(file stem, seed, faults)`.
const GOLDEN_CASES: [(&str, u64, bool); 2] = [
    ("trace_rcast_seed7", 7, false),
    ("trace_rcast_seed19_faults", 19, true),
];

fn render_golden(cfg: &SimConfig, threads: usize) -> String {
    let reports =
        run_seeds_parallel(cfg, [cfg.seed], threads).expect("valid golden config");
    let report = &reports[0];
    let obs = report.obs.as_ref().expect("obs was requested");
    randomcast::render_jsonl(obs, report.scheme.label(), report.seed, None, None)
}

#[test]
fn golden_traces_are_byte_identical_at_every_width() {
    let goldens: [(&str, &str); 2] = [
        (
            GOLDEN_CASES[0].0,
            include_str!("golden/trace_rcast_seed7.jsonl"),
        ),
        (
            GOLDEN_CASES[1].0,
            include_str!("golden/trace_rcast_seed19_faults.jsonl"),
        ),
    ];
    for ((stem, seed, faults), (_, want)) in GOLDEN_CASES.iter().zip(goldens) {
        let cfg = golden_config(*seed, *faults);
        for threads in WIDTHS {
            let got = render_golden(&cfg, threads);
            assert!(
                got == want,
                "{stem}: rcast-trace/v1 diverged from tests/golden/{stem}.jsonl \
                 at {threads} thread(s); if the change is intentional, regenerate \
                 with `cargo test --test determinism -- --ignored` and review the diff"
            );
        }
    }
}

/// Regenerates the golden files in place. Ignored by default — run
/// explicitly after a deliberate behavior change:
/// `cargo test --test determinism -- --ignored`.
#[test]
#[ignore = "writes tests/golden/*.jsonl; run deliberately"]
fn regenerate_goldens() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    for (stem, seed, faults) in GOLDEN_CASES {
        let cfg = golden_config(seed, faults);
        let jsonl = render_golden(&cfg, 1);
        let path = dir.join(format!("{stem}.jsonl"));
        std::fs::write(&path, &jsonl).expect("write golden");
        println!("wrote {} ({} lines)", path.display(), jsonl.lines().count());
    }
}

/// Seed order in the output is the seed order of the input, not
/// completion order — even with more workers than seeds.
#[test]
fn report_order_follows_seed_order() {
    let cfg = smoke(Scheme::Rcast);
    let reports = run_seeds_parallel(&cfg, [42, 5, 23], 8).expect("valid config");
    let got: Vec<u64> = reports.iter().map(|r| r.seed).collect();
    assert_eq!(got, vec![42, 5, 23]);
}

/// The aggregate built by the parallel helper equals the serial
/// aggregate exactly.
#[test]
fn aggregate_from_parallel_matches_from_runs() {
    let cfg = smoke(Scheme::Rcast);
    let serial =
        randomcast::AggregateReport::from_runs(&run_seeds(&cfg, SEEDS).expect("valid config"));
    for threads in WIDTHS {
        let parallel = randomcast::AggregateReport::from_parallel(&cfg, &SEEDS, threads)
            .expect("valid config");
        assert_eq!(
            format!("{serial:?}"),
            format!("{parallel:?}"),
            "aggregate diverged at {threads} threads"
        );
    }
}
