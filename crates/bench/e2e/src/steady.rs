//! `rcast-e2e steady`: runs one workload N times, each in its own
//! process with its own seed (1..=N), and prints every end-to-end
//! metric's median, quartiles and spread against its bound.

use std::process::Command;

use crate::report::{Metric, END_TO_END};
use crate::stats::{quartiles, spread};

/// Runs the steadiness command.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let (mut runs, mut seconds) = (10u64, "20".to_string());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--runs" => {
                runs = value
                    .parse()
                    .ok()
                    .filter(|&n| n >= 2)
                    .ok_or("--runs needs an integer >= 2")?
            }
            "--seconds" => seconds = value.clone(),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let table: &[Metric] = &END_TO_END;
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut results: Vec<Vec<f64>> = vec![Vec::new(); table.len()];
    let mut failure_shares = Vec::new();
    for seed in 1..=runs {
        let out = Command::new(&exe)
            .args(["--workload", &workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds, "--trace", "0"])
            .output()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            return Err(format!("seed {seed}: exit {}", out.status));
        }
        let parsed = parse_result(line, table).map_err(|e| format!("seed {seed}: {e}: {line}"))?;
        if !parsed.correct {
            eprintln!("seed {seed}: correct = false");
        }
        failure_shares.push((parsed.failed, parsed.attempted));
        eprintln!("seed {seed}: {line}");
        for (col, v) in results.iter_mut().zip(parsed.values) {
            col.push(v);
        }
    }
    println!("{workload}: {runs} runs, seeds 1..{runs}");
    println!(
        "{:<48} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "metric (unit, better)", "q1", "median", "q3", "spread", "bound"
    );
    for (m, v) in table.iter().zip(&results) {
        let [q1, med, q3] = quartiles(v);
        let s = spread(v);
        let bound = m.bound.expect("every end-to-end metric has a bound");
        let verdict = if s.abs() <= bound / 3.0 {
            "steady"
        } else if s.abs() <= bound {
            "within bound"
        } else {
            "TOO WIDE"
        };
        println!(
            "{:<48} {q1:>14.6} {med:>14.6} {q3:>14.6} {s:>8.4} {bound:>6}  {verdict}",
            format!("{} ({}, {})", m.name, m.unit, m.better.label())
        );
    }
    let same_share = failure_shares
        .iter()
        .all(|&(f, a)| f * failure_shares[0].1 == failure_shares[0].0 * a);
    println!(
        "failed/attempted: {} ({})",
        failure_shares
            .iter()
            .map(|(f, a)| format!("{f}/{a}"))
            .collect::<Vec<_>>()
            .join(" "),
        if same_share {
            "same share in every run"
        } else {
            "SHARE DIFFERS"
        }
    );
    Ok(())
}

/// One parsed result line.
#[derive(Debug, PartialEq)]
pub struct Parsed {
    /// `correct`.
    pub correct: bool,
    /// `attempted`.
    pub attempted: u64,
    /// `failed`.
    pub failed: u64,
    /// Metric values in table order.
    pub values: Vec<f64>,
}

/// Reads a result line written by [`crate::report::render`].
pub fn parse_result(line: &str, table: &[Metric]) -> Result<Parsed, String> {
    let number = |key: &str| -> Result<&str, String> {
        let start = line.find(key).ok_or_else(|| format!("no {key}"))? + key.len();
        let rest = &line[start..];
        let end = rest
            .find([',', '}'])
            .ok_or_else(|| format!("unterminated {key}"))?;
        Ok(rest[..end].trim())
    };
    let correct = match number("\"correct\": ")? {
        "true" => true,
        "false" => false,
        v => return Err(format!("bad correct {v:?}")),
    };
    let int = |key: &str| {
        number(key)?
            .parse::<u64>()
            .map_err(|e| format!("{key}: {e}"))
    };
    let attempted = int("\"attempted\": ")?;
    let failed = int("\"failed\": ")?;
    let values = table
        .iter()
        .map(|m| {
            let key = format!("\"{}\": {{\"value\": ", m.name);
            number(&key)?
                .parse::<f64>()
                .map_err(|e| format!("{}: {e}", m.name))
        })
        .collect::<Result<_, _>>()?;
    Ok(Parsed {
        correct,
        attempted,
        failed,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::render;

    #[test]
    fn reads_back_what_the_benchmark_prints() {
        let values = [
            ("sim_s_per_s", 98.765),
            ("setup_s", 0.0003),
            ("peak_rss_mb", 41.5),
            ("heap_allocs", 120034.0),
        ];
        let line = render(false, 40, 2, &END_TO_END, &values).expect("complete");
        let parsed = parse_result(&line, &END_TO_END).expect("parses");
        assert_eq!(
            parsed,
            Parsed {
                correct: false,
                attempted: 40,
                failed: 2,
                values: values.iter().map(|&(_, v)| v).collect()
            }
        );
    }

    #[test]
    fn refuses_lines_without_every_metric() {
        let line = "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}";
        assert!(parse_result(line, &END_TO_END).is_err());
        assert!(parse_result("not json", &END_TO_END).is_err());
    }
}
