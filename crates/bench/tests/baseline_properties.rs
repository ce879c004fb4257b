//! Mutation property for `perf::parse_baseline`, the reader behind
//! `rcast bench --check`: mutated `rcast-bench/v1` documents
//! (truncated, spliced, tokens swapped, hostile values such as NaN,
//! infinities, negatives and huge numbers) must parse to points a
//! check can trust or to an error naming its line, never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rcast_bench::perf::{parse_baseline, BaselinePoint};
use rcast_testkit::{prop_assert, Check, Gen};

/// The checked-in baseline and a small document with a `null`
/// allocation rate, as `to_json` writes it.
const CORPUS: [&str; 2] = [
    include_str!("../../../BENCH_rcast.json"),
    "{\n  \"schema\": \"rcast-bench/v1\",\n  \"points\": [\n    \
     {\"workload\": \"small\", \"scheme\": \"Rcast\", \"nodes\": 50, \"sim_seconds\": 120, \
     \"intervals\": 480, \"wall_seconds\": 0.011, \"intervals_per_sec\": 42736.8, \
     \"ms_per_sim_second\": 0.094, \"allocs_per_interval\": 0.55},\n    \
     {\"workload\": \"sweep\", \"scheme\": \"mixed\", \"nodes\": 20, \"sim_seconds\": 1440, \
     \"intervals\": 5760, \"wall_seconds\": 0.046, \"intervals_per_sec\": 124813.6, \
     \"ms_per_sim_second\": 0.032, \"allocs_per_interval\": null}\n  ]\n}\n",
];

/// The numeric fields a mutation may overwrite.
const FIELDS: [&str; 4] = [
    "intervals_per_sec",
    "allocs_per_interval",
    "wall_seconds",
    "nodes",
];

fn parse_caught(text: &str) -> Result<Result<Vec<BaselinePoint>, String>, String> {
    catch_unwind(AssertUnwindSafe(|| parse_baseline(text)))
        .map_err(|_| format!("parse_baseline panicked on {text:?}"))
}

#[test]
fn mutated_baselines_never_panic_and_errors_name_their_line() {
    let huge = "9".repeat(400);
    let bad: [&str; 16] = [
        "NaN",
        "inf",
        "-inf",
        "-1",
        "-0.0",
        "1e30",
        "1e400",
        "18446744073709551616",
        &huge,
        "0",
        "",
        ",",
        "null",
        "\"x\"",
        "}",
        "\u{e9}",
    ];
    for text in CORPUS {
        assert!(
            parse_baseline(text).is_ok(),
            "corpus document fails:\n{text}"
        );
    }
    Check::new("bench_baseline_mutations")
        .cases(1024)
        .run(|g: &mut Gen| {
            let text = CORPUS[g.usize_range(0, CORPUS.len())];
            let other = CORPUS[g.usize_range(0, CORPUS.len())];
            let hostile = bad[g.usize_range(0, bad.len())];
            let field = FIELDS[g.usize_range(0, FIELDS.len())];
            let mutated = match g.usize_range(0, 5) {
                // Truncate anywhere (the corpus is ASCII).
                0 => text[..g.usize_range(0, text.len() + 1)].to_string(),
                // Splice a prefix of one document onto a suffix of another.
                1 => format!(
                    "{}{}",
                    &text[..g.usize_range(0, text.len() + 1)],
                    &other[g.usize_range(0, other.len() + 1)..]
                ),
                // Swap two tokens, possibly across lines.
                2 => {
                    let mut tokens: Vec<&str> = text.split(' ').collect();
                    let (a, b) = (
                        g.usize_range(0, tokens.len()),
                        g.usize_range(0, tokens.len()),
                    );
                    tokens.swap(a, b);
                    tokens.join(" ")
                }
                // One point's field takes a hostile value.
                3 => {
                    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
                    let points: Vec<usize> = (0..lines.len())
                        .filter(|&i| lines[i].contains("\"workload\""))
                        .collect();
                    let at = points[g.usize_range(0, points.len())];
                    let key = format!("\"{field}\": ");
                    if let Some((head, tail)) = lines[at].split_once(&key) {
                        let rest = tail.find([',', '}']).map_or("", |end| &tail[end..]);
                        lines[at] = format!("{head}{key}{hostile}{rest}");
                    }
                    lines.join("\n")
                }
                // A hostile token inserted anywhere.
                _ => {
                    let at = g.usize_range(0, text.len() + 1);
                    format!("{}{hostile}{}", &text[..at], &text[at..])
                }
            };
            match parse_caught(&mutated)? {
                Err(e) => {
                    let line = e
                        .strip_prefix("line ")
                        .and_then(|rest| rest.split_once(": "))
                        .and_then(|(n, _)| n.parse::<usize>().ok());
                    let lines = mutated.lines().count().max(1);
                    prop_assert!(
                        line.is_some_and(|n| (1..=lines).contains(&n)),
                        "error {e:?} names no line of {mutated:?}"
                    );
                }
                Ok(points) => {
                    prop_assert!(!points.is_empty(), "no points from {mutated:?}");
                    for p in points {
                        prop_assert!(
                            p.intervals_per_sec.is_finite() && p.intervals_per_sec > 0.0,
                            "speed floor {} accepted from {mutated:?}",
                            p.intervals_per_sec
                        );
                        prop_assert!(
                            p.allocs_per_interval
                                .is_none_or(|a| a.is_finite() && a >= 0.0),
                            "allocation rate {:?} accepted from {mutated:?}",
                            p.allocs_per_interval
                        );
                    }
                }
            }
            Ok(())
        });
}
