//! The `rcast` command-line simulator.
//!
//! ```sh
//! cargo run --release --bin rcast -- run --scheme rcast --rate 0.4
//! cargo run --release --bin rcast -- compare --rates 0.2,2.0
//! cargo run --release --bin rcast -- help
//! ```

use std::io::Write as _;
use std::process::ExitCode;

use randomcast::cli::{self, Command};
use randomcast::metrics::fmt_f64;
use randomcast::{run_sim, SimConfig, SweepReport, SweepSpec};

/// Count every heap allocation so `rcast bench` can report steady-state
/// allocations per interval. The probe forwards to the system allocator
/// and adds one relaxed atomic increment — unmeasurable for every other
/// subcommand.
#[global_allocator]
static ALLOC_PROBE: rcast_bench::AllocProbe = rcast_bench::AllocProbe::new();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Ok(Command::Help) => {
            emit(cli::USAGE);
            ExitCode::SUCCESS
        }
        Ok(Command::Run(run)) => run_and_print(run.config, run.csv),
        Ok(Command::Scenario { path, csv }) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let config = match randomcast::parse_scenario(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error in {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            run_and_print(config, csv)
        }
        Ok(Command::ExportScenario(cfg)) => {
            emit(&randomcast::write_scenario(&cfg));
            ExitCode::SUCCESS
        }
        Ok(Command::Lint(lint)) => {
            // Lint contract: 0 clean, 1 findings, 2 usage or I/O error.
            let io_error = ExitCode::from(2);
            let root = match lint.root {
                Some(r) => std::path::PathBuf::from(r),
                None => {
                    let cwd = match std::env::current_dir() {
                        Ok(d) => d,
                        Err(e) => {
                            eprintln!("error: cannot determine current directory: {e}");
                            return io_error;
                        }
                    };
                    match rcast_lint::find_workspace_root(&cwd) {
                        Some(r) => r,
                        None => {
                            eprintln!("error: no workspace Cargo.toml above {}", cwd.display());
                            return io_error;
                        }
                    }
                }
            };
            let baseline = match &lint.baseline {
                Some(path) => {
                    let text = match std::fs::read_to_string(path) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!("error: cannot read {path}: {e}");
                            return io_error;
                        }
                    };
                    match rcast_lint::parse_baseline(&text) {
                        Ok(b) => b,
                        Err(e) => {
                            eprintln!("error in {path}: {e}");
                            return io_error;
                        }
                    }
                }
                None => Vec::new(),
            };
            match rcast_lint::lint_workspace(&root) {
                Ok(findings) => {
                    let (kept, stale) = rcast_lint::apply_baseline(findings, &baseline);
                    for s in &stale {
                        eprintln!("rcast lint: stale baseline entry '{} {}'", s.rule, s.path);
                    }
                    if lint.json {
                        emit(&rcast_lint::render_json(&kept));
                    } else if lint.sarif {
                        emit(&rcast_lint::render_sarif(&kept));
                    } else {
                        emit(&rcast_lint::render_text(&kept));
                        if kept.is_empty() {
                            eprintln!("rcast lint: clean ({})", root.display());
                        } else {
                            eprintln!("rcast lint: {} finding(s)", kept.len());
                        }
                    }
                    if kept.is_empty() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    io_error
                }
            }
        }
        Ok(Command::Bench(bench)) => {
            use rcast_bench::perf;
            let results = perf::run_suite_with(bench.smoke, bench.large);
            let json = perf::to_json(&results);
            emit(&json);
            if bench.large {
                // stderr, so `rcast bench > file` keeps the table visible.
                eprint!("{}", perf::scaling_table(&results));
            }
            // Every gate runs and every failure is reported before the
            // exit code says whether any failed: one failing gate must
            // not hide another, nor keep `--out` from being written.
            let mut failures = Vec::new();
            if let Some(path) = &bench.out {
                match std::fs::write(path, &json) {
                    Ok(()) => eprintln!("rcast bench: wrote {path}"),
                    Err(e) => failures.push(format!("cannot write {path}: {e}")),
                }
            }
            let baseline = bench.check.as_deref().and_then(|path| {
                let points = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))
                    .and_then(|text| {
                        perf::parse_baseline(&text).map_err(|e| format!("{path}: {e}"))
                    });
                match points {
                    Ok(points) => Some((path, points)),
                    Err(e) => {
                        failures.push(e);
                        None
                    }
                }
            });
            let ledger = bench.smoke.then(|| {
                let o = perf::ledger_overhead();
                eprintln!(
                    "rcast bench: ledger overhead {:.1}% \
({} ns/interval off, {} ns/interval on; steady-state allocs {} off, {} on)",
                    o.overhead_fraction() * 100.0,
                    o.off_nanos_per_interval,
                    o.on_nanos_per_interval,
                    o.off_allocs,
                    o.on_allocs,
                );
                o
            });
            let tolerance = bench
                .tolerance
                .map(|pct| pct / 100.0)
                .unwrap_or(perf::CHECK_SPEED_TOLERANCE);
            let gates = perf::Gates {
                scaling: bench.large,
                baseline: baseline
                    .as_ref()
                    .map(|(path, points)| (*path, &points[..], tolerance)),
                ledger: ledger.as_ref(),
            };
            failures.extend(perf::gate_failures(&results, gates));
            for f in &failures {
                eprintln!("error: {f}");
            }
            if !failures.is_empty() {
                return ExitCode::FAILURE;
            }
            if let Some((path, _)) = baseline {
                eprintln!("rcast bench: within budget of {path}");
            }
            ExitCode::SUCCESS
        }
        Ok(Command::Trace(trace)) => {
            let mut cfg = trace.config.clone();
            cfg.obs = true;
            let report = match run_sim(cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let obs = report.obs.as_ref().expect("obs was requested");
            let jsonl = randomcast::render_jsonl(
                obs,
                report.scheme.label(),
                report.seed,
                trace.filter.as_ref(),
                trace.interval_range,
            );
            if let Some(path) = &trace.out {
                if let Err(e) = std::fs::write(path, &jsonl) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("rcast trace: wrote {path} ({} lines)", jsonl.lines().count());
            } else {
                emit(&jsonl);
            }
            let control: u64 = match trace.config.routing {
                randomcast::RoutingKind::Dsr => {
                    report.dsr.control_events().iter().map(|&(_, n)| n).sum()
                }
                randomcast::RoutingKind::Aodv => {
                    report.aodv.control_events().iter().map(|&(_, n)| n).sum()
                }
            };
            eprintln!(
                "rcast trace: {} events ({} dropped) over {} intervals | \
{} routing control events | {:.0} J audited",
                obs.events().len(),
                obs.dropped(),
                obs.intervals(),
                control,
                report.energy.total_joules(),
            );
            ExitCode::SUCCESS
        }
        Ok(Command::Sweep(sweep)) => {
            // Preset names win; anything else is a spec-file path.
            let spec = match randomcast::sweep::preset(&sweep.spec) {
                Some(s) => s,
                None => {
                    let text = match std::fs::read_to_string(&sweep.spec) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!(
                                "error: '{}' is neither a preset ({}) nor a readable \
spec file: {e}",
                                sweep.spec,
                                randomcast::sweep::PRESETS.join(", "),
                            );
                            return ExitCode::FAILURE;
                        }
                    };
                    match randomcast::sweep::parse_spec(&text) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("error in {}: {e}", sweep.spec);
                            return ExitCode::FAILURE;
                        }
                    }
                }
            };
            let spec = if sweep.smoke { spec.smoke() } else { spec };
            let report = match run_campaign(&spec, sweep.threads) {
                Ok(r) => r,
                Err(code) => return code,
            };
            let json = randomcast::sweep::to_json(&report);
            if let Some(dir) = &sweep.out {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("error: cannot create {dir}: {e}");
                    return ExitCode::FAILURE;
                }
                let base = format!("{dir}/{}", report.spec.name);
                let csv = randomcast::sweep::to_csv(&report);
                for (path, content) in
                    [(format!("{base}.json"), &json), (format!("{base}.csv"), &csv)]
                {
                    if let Err(e) = std::fs::write(&path, content) {
                        eprintln!("error: cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("rcast sweep: wrote {path}");
                }
            } else {
                emit(&json);
            }
            eprint!("{}", randomcast::sweep::human_summary(&report));
            ExitCode::SUCCESS
        }
        Ok(Command::Compare(cmp)) => match run_campaign(&cmp.spec, cmp.threads) {
            Ok(report) => {
                emit(&randomcast::sweep::human_summary(&report));
                ExitCode::SUCCESS
            }
            Err(code) => code,
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", cli::USAGE);
            // Lint reserves exit 1 for findings; its usage errors are 2.
            if args.first().is_some_and(|a| a == "lint") {
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// Writes `text` to standard output. A reader that closes the pipe
/// early (`rcast trace | head`) ends the process quietly with exit 0,
/// since the output it wanted was delivered; any other write error is
/// reported on stderr and exits 1.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// Runs one configuration for `rcast run` and `rcast scenario` and
/// prints its CSV row, or the human summary: a battery or a fault plan
/// adds the first depletion (if any) and the `faults:` counter line.
fn run_and_print(config: SimConfig, csv: bool) -> ExitCode {
    let report = match run_sim(config.clone()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if csv {
        emit(&format!("{}\n", cli::csv_row(&report, &config)));
        return ExitCode::SUCCESS;
    }
    let mut text = format!(
        "{}\n  routing {} | originated {} | delivered {} | control tx {} | EPB {} J/bit\n",
        report.summary(),
        config.routing,
        report.delivery.originated(),
        report.delivery.delivered(),
        report.delivery.control_transmissions(),
        fmt_f64(report.energy_per_bit(config.traffic.packet_bytes), 9),
    );
    if config.battery_capacity_j.is_some() || !config.faults.is_none() {
        if let Some(t) = report.first_depletion {
            text += &format!("  first battery depletion at {t}\n");
        }
        let f = &report.faults;
        text += &format!(
            "  faults: {} crashes | {} rejoins | {} battery deaths | \
{} blackouts | {} bursts | {} fault link errors | {} packets lost\n",
            f.crashes,
            f.rejoins,
            f.battery_deaths,
            f.link_blackouts,
            f.corruption_bursts,
            f.rerrs_triggered,
            f.packets_lost_to_faults,
        );
    }
    emit(&text);
    ExitCode::SUCCESS
}

/// Runs a sweep campaign (`rcast sweep` and `rcast compare`) on
/// `threads` workers, the machine width when `None`. A spec error goes
/// to stderr and becomes the failing exit code.
fn run_campaign(spec: &SweepSpec, threads: Option<usize>) -> Result<SweepReport, ExitCode> {
    let threads = threads.unwrap_or_else(randomcast::engine::pool::available_threads);
    randomcast::sweep::run_spec(spec, threads).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
