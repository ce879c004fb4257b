//! `rcast-e2e`: the repository's end-to-end benchmark.
//!
//! ```text
//! rcast-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rcast-e2e steady --workload <name> [--runs N] [--seconds S]
//! ```
//!
//! The first form runs one workload (`idle-1200`, `storm-150`,
//! `trace-150` or `campaign`) and prints, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The second runs the first, untraced, with seeds 1..=N
//! and prints each end-to-end metric's median, quartiles and spread
//! against its bound. README.md describes workloads, metrics and method.

#![forbid(unsafe_code)]

mod checks;
mod clock;
mod layers;
mod report;
mod rss;
mod stats;
mod steady;
mod workload;

use std::process::{Command, ExitCode};
use std::sync::Arc;

use rcast_bench::alloc_probe::{self, AllocProbe};
use rcast_core::{render_jsonl, SimReport, Simulation};
use rcast_sweep::{run_spec, to_csv, to_json};

use workload::Workload;

#[global_allocator]
static ALLOCATOR: AllocProbe = AllocProbe::new();

/// A parsed command line of the first form.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: rcast-e2e --workload <idle-1200|storm-150|trace-150|campaign> \
--seed <n> --seconds <s> --trace <0|1>\n       rcast-e2e steady --workload <name> [--runs N] \
[--seconds S]";

/// Parses `--flag value` pairs; every flag but `--workload` has a
/// default (seed 1, 20 seconds, untraced).
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: Workload::Storm150,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                out.workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                named = true;
            }
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(out)
}

/// The glibc malloc tunable that fixes the mmap threshold at 32 MiB,
/// the ceiling glibc's own adjustment climbs to on 64-bit hosts.
const MMAP_TUNABLE: &str = "glibc.malloc.mmap_threshold=33554432";

/// Runs this program again, as a child with [`MMAP_TUNABLE`] added to
/// `GLIBC_TUNABLES`, unless it is there already, and returns the
/// child's exit code. Left to itself, glibc raises the mmap threshold
/// to the largest mmapped block freed so far and the trim threshold to
/// twice that, so how much freed memory the heap keeps, and with it
/// `peak_rss_mb`, depends on the order of the earlier operations'
/// output sizes: two passes of trace-150 read about 70 MB on 5 of 31
/// seeds and about 53.7 MB on the rest. A fixed threshold turns the
/// adjustment off; at 32 MiB those five seeds read 53.5-53.9 MB, and at
/// 128 KiB (glibc's starting value) the campaign's peak moved by 5%
/// between runs of one seed. glibc reads the tunable only at start-up,
/// hence the second process; other C libraries ignore it.
fn with_fixed_mmap_threshold() -> Option<ExitCode> {
    let current = std::env::var("GLIBC_TUNABLES").unwrap_or_default();
    if current.split(':').any(|t| t == MMAP_TUNABLE) {
        return None;
    }
    let tunables = if current.is_empty() {
        MMAP_TUNABLE.to_string()
    } else {
        format!("{current}:{MMAP_TUNABLE}")
    };
    let status = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env("GLIBC_TUNABLES", tunables)
            .status()
    });
    Some(match status {
        Ok(s) => s
            .code()
            .and_then(|c| u8::try_from(c).ok())
            .map_or(ExitCode::FAILURE, ExitCode::from),
        Err(e) => {
            eprintln!("rcast-e2e: restarting with a fixed mmap threshold: {e}");
            ExitCode::from(2)
        }
    })
}

fn main() -> ExitCode {
    if let Some(code) = with_fixed_mmap_threshold() {
        return code;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("steady") => steady::run(&args[1..]),
        _ => parse_args(&args).and_then(|a| bench(&a)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rcast-e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One benchmark run: measure (untraced or traced), check that the
/// report does not depend on the worker count, print the result line.
fn bench(a: &Args) -> Result<(), String> {
    if !alloc_probe::is_installed() {
        return Err("the allocation probe is not this process's allocator".into());
    }
    let threads = rcast_engine::pool::available_threads();
    let (attempted, failed, table, values) = if a.trace {
        let t = layers::run(a.workload, a.seed, threads);
        (t.attempted, t.failed, &report::PER_LAYER[..], t.metrics)
    } else {
        let m = workload::measure(a.workload, a.seed, a.seconds, threads);
        let values = vec![
            ("sim_s_per_s", m.sim_s_per_s),
            ("setup_s", m.setup_s),
            ("peak_rss_mb", m.peak_rss_mb?),
            ("heap_allocs", m.heap_allocs as f64),
        ];
        (m.attempted, m.failed, &report::END_TO_END[..], values)
    };
    let deterministic = width_check(a.workload, a.seed, threads);
    if let Err(e) = &deterministic {
        eprintln!("{}: width determinism check failed: {e}", a.workload.name());
    }
    // `correct` speaks of the operations that did not fail; failed
    // operations are counted in `failed`.
    let correct = deterministic.is_ok();
    println!(
        "{}",
        report::render(correct, attempted, failed, table, &values)?
    );
    Ok(())
}

/// The untimed width check. A simulation's report (and, for trace-150,
/// its export) must be the same at shard width 1 and 2; a campaign's
/// rcast-sweep/v1 artifacts must be byte-identical at 1 and `threads`
/// workers, and each of its runs must pass the per-run checks.
fn width_check(w: Workload, seed: u64, threads: usize) -> Result<(), String> {
    match w.sim_config() {
        Some(cfg) => {
            let cfg = Arc::new(cfg);
            let s = w.pass_seeds(seed, 0)[0];
            let [one, two] = [1, 2].map(|width| {
                let mut sim = Simulation::with_seed(cfg.clone(), s)
                    .expect("workload configurations validate");
                sim.set_shard_width(width);
                fingerprint(sim.run())
            });
            if one != two {
                return Err("report differs between shard widths 1 and 2".into());
            }
            Ok(())
        }
        None => {
            let spec = &workload::pass_specs(seed, 0)[0];
            let serial = run_spec(spec, 1)?;
            let wide = run_spec(spec, threads.max(2))?;
            if to_json(&serial) != to_json(&wide) || to_csv(&serial) != to_csv(&wide) {
                return Err(format!(
                    "artifacts differ between 1 and {} workers",
                    threads.max(2)
                ));
            }
            checks::campaign_runs(&serial)
        }
    }
}

/// A report's full content as text: `Debug` prints every field, floats
/// at round-trip precision; the ledger is compared through its export.
fn fingerprint(mut r: SimReport) -> String {
    let export = r
        .obs
        .take()
        .map(|obs| render_jsonl(&obs, r.scheme.label(), r.seed, None, None));
    format!("{r:?}\n{}", export.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "campaign",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]));
        assert_eq!(
            a,
            Ok(Args {
                workload: Workload::Campaign,
                seed: 7,
                seconds: 20.0,
                trace: true
            })
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "storm-150", "--trace", "2"],
            &["--workload", "storm-150", "--seconds", "-1"],
            &["--workload", "storm-150", "--seed"],
            &["--workload", "storm-150", "--color", "red"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
