//! Property tests for sweep-matrix expansion, cell seed derivation and
//! the spec-file parser.
//!
//! Pinned here, over arbitrary axis specs:
//!
//! * normalization makes expansion **order-independent** — permuting a
//!   spec's axis lists never changes the matrix;
//! * the expanded matrix is **duplicate-free** and exactly the size of
//!   the axis product;
//! * under independent pairing, `(cell, base seed)` → run-seed is
//!   **collision-free** across the whole matrix — no two runs of a
//!   campaign ever share an RNG stream.
//!
//! And over mutated spec files (truncated, tokens swapped, values
//! replaced by NaN, inf, −1, 1e30, 2^64, a full-width seed range, empty
//! lists, a variant assigning an axis key or `obs`, or a campaign name
//! holding quotes, commas, slashes, `..`, newlines or non-ASCII text):
//! `parse_spec` never panics, every error names a line, `normalized()`
//! leaves every parsed spec as it is, and every accepted name is safe
//! as an artifact file stem and as unescaped JSON/CSV text.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rcast_core::{Scheme, SimConfig};
use rcast_engine::SimDuration;
use rcast_sweep::{parse_spec, Pairing, SweepSpec, Variant};
use rcast_testkit::{prop_assert, prop_assert_eq, Check, Gen};

/// An arbitrary (valid) spec: random subsets of the scheme axis, random
/// small float/integer axes, sized by the generator's size dial.
fn arb_spec(g: &mut Gen) -> SweepSpec {
    let mut spec = SweepSpec::paper_default("prop");
    // A fast base so accidental execution in a property stays cheap;
    // these tests only expand, never run.
    spec.base = SimConfig::smoke(Scheme::Rcast, 0);
    spec.base.duration = SimDuration::from_secs(10);
    let k = g.usize_range(1, Scheme::ALL.len() + 1);
    spec.schemes = Scheme::ALL[..k].to_vec();
    spec.rates = g.vec(1, 4, |g| {
        // Steps of 0.1 in (0, 25.6]: coarse enough to collide sometimes
        // (exercising dedup), always valid.
        f64::from(g.u32_range(1, 256)) / 10.0
    });
    spec.pauses = g.vec(1, 4, |g| f64::from(g.u32_range(0, 1200)));
    spec.nodes = g.vec(1, 3, |g| g.u32_range(2, 40));
    spec.seeds = g.vec(1, 6, |g| g.u64_range(0, 1 << 48));
    spec.variants = g.vec(1, 3, |g| {
        if g.bool() {
            Variant::default()
        } else {
            let (crash, downtime) = (f64::from(g.u32_range(0, 10)) / 10.0, g.u32_range(0, 60));
            Variant::parse(&format!("faults crash={crash},downtime={downtime}"))
                .expect("a valid fault plan")
        }
    });
    spec.pairing = if g.bool() {
        Pairing::Common
    } else {
        Pairing::Independent
    };
    spec
}

/// A deterministic pseudo-shuffle driven by the generator.
fn shuffle<T>(g: &mut Gen, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, g.usize_range(0, i + 1));
    }
}

#[test]
fn expansion_is_independent_of_axis_input_order() {
    Check::new("sweep-expansion-order-independent")
        .cases(64)
        .run(|g| {
            let spec = arb_spec(g);
            let mut permuted = spec.clone();
            shuffle(g, &mut permuted.schemes);
            shuffle(g, &mut permuted.rates);
            shuffle(g, &mut permuted.pauses);
            shuffle(g, &mut permuted.nodes);
            shuffle(g, &mut permuted.seeds);

            let a = spec.normalized().map_err(|e| format!("normalize: {e}"))?;
            let b = permuted
                .normalized()
                .map_err(|e| format!("normalize permuted: {e}"))?;
            prop_assert_eq!(a, b);
            Ok(())
        });
}

#[test]
fn expansion_is_duplicate_free_and_exactly_the_axis_product() {
    Check::new("sweep-expansion-duplicate-free")
        .cases(64)
        .run(|g| {
            let spec = arb_spec(g)
                .normalized()
                .map_err(|e| format!("normalize: {e}"))?;
            let cells = spec.expand();
            let product = spec.schemes.len()
                * spec.rates.len()
                * spec.pauses.len()
                * spec.nodes.len()
                * spec.variants.len();
            prop_assert_eq!(cells.len(), product);

            let mut keys: Vec<String> =
                cells.iter().map(|c| c.key()).collect();
            let total = keys.len();
            keys.sort();
            keys.dedup();
            prop_assert_eq!(keys.len(), total);
            Ok(())
        });
}

#[test]
fn independent_pairing_never_collides_across_the_matrix() {
    Check::new("sweep-cell-seed-streams-never-collide")
        .cases(48)
        .run(|g| {
            let spec = arb_spec(g)
                .normalized()
                .map_err(|e| format!("normalize: {e}"))?;
            let mut run_seeds: Vec<u64> = Vec::new();
            for cell in spec.expand() {
                for &base in &spec.seeds {
                    run_seeds.push(cell.run_seed(base, Pairing::Independent));
                }
            }
            let total = run_seeds.len();
            run_seeds.sort_unstable();
            run_seeds.dedup();
            prop_assert_eq!(run_seeds.len(), total);
            Ok(())
        });
}

#[test]
fn run_seed_derivation_is_stable_and_pairing_aware() {
    Check::new("sweep-run-seed-stability").cases(48).run(|g| {
        let spec = arb_spec(g)
            .normalized()
            .map_err(|e| format!("normalize: {e}"))?;
        let cells = spec.expand();
        let cell = &cells[g.usize_range(0, cells.len())];
        let base = spec.seeds[g.usize_range(0, spec.seeds.len())];
        prop_assert_eq!(cell.run_seed(base, Pairing::Common), base);
        let derived = cell.run_seed(base, Pairing::Independent);
        prop_assert_eq!(
            derived,
            cell.run_seed(base, Pairing::Independent)
        );
        // Deterministic inputs: if this ever failed it would fail on
        // every run, so a 2^-64 collision is a safe thing to pin.
        prop_assert!(derived != base, "cell {}", cell.key());
        Ok(())
    });
}

/// Spec texts the parser property mutates: `parse_spec`'s doc example
/// and one text for each of the variant, fault-plan, metrics and
/// per-node lines.
const CORPUS: [&str; 5] = [
    "# rcast sweep spec\nname my-campaign\nschemes 802.11,odpm,rcast\n\
     rates 0.2,0.4,1.0,2.0\npauses 600,1125\nnodes 100\nseeds 1..10\n\
     fault-plan none\nfault-plan crash=0.3,downtime=20\n\
     variant factors neighbors,battery; battery 1500\n\
     metrics rreq_tx,first_depletion_s\npairing common\nper-node false\n\
     # base lines: handed to the scenario parser\nduration 1125\nflows 20\n",
    "name variants\nschemes rcast\nrates 0.4\n\
     variant factors neighbors,sender-id; battery 800; broadcast_p 0.5\n\
     variant cache_strategy link; cache_capacity 128; cache_timeout 30\n\
     variant odpm_rrep_timeout_ms 1000; odpm_data_timeout_ms 500\nduration 30\n",
    "name faults\nseeds 1,4..6\nfault-plan none\nfault-plan crash=0.3,downtime=20\n\
     pairing independent\nnodes 20,40\n",
    "name metrics\nschemes 802.11,psm,rcast\nvariant routing aodv\n\
     metrics rreq_tx,rreq_share,hellos,first_depletion_s,depleted\nbattery 500\n",
    "name curves\nper-node true\nrates 0.4,2.0\npauses 600,1125\narea 800 300\n",
];

/// Parses without letting a panic escape: a panic becomes a property
/// failure carrying the offending text and the runner's replay seed.
fn parse_caught(text: &str) -> Result<Result<SweepSpec, String>, String> {
    catch_unwind(AssertUnwindSafe(|| parse_spec(text)))
        .map_err(|_| format!("parse_spec panicked on {text:?}"))
}

#[test]
fn mutated_specs_never_panic_name_their_line_and_stay_normalized() {
    const BAD: [&str; 12] = [
        "NaN",
        "inf",
        "-1",
        "1e30",
        "18446744073709551616",
        "0..18446744073709551615",
        "",
        ",",
        "scheme rcast",
        "obs true",
        "nodes 5; broadcast_p 0.5",
        "rate 2; seed 3",
    ];
    for text in CORPUS {
        let spec = parse_spec(text).unwrap_or_else(|e| panic!("corpus text fails: {e}\n{text}"));
        assert_eq!(spec.normalized(), Ok(spec.clone()), "{text}");
    }
    Check::new("sweep_spec_mutations").cases(512).run(|g: &mut Gen| {
        let text = CORPUS[g.usize_range(0, CORPUS.len())];
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let at = g.usize_range(0, lines.len());
        let key = lines[at].split(' ').next().unwrap_or("").to_string();
        let bad = BAD[g.usize_range(0, BAD.len())];
        let mutated = match g.usize_range(0, 5) {
            // Truncate anywhere (the corpus is ASCII).
            0 => text[..g.usize_range(0, text.len() + 1)].to_string(),
            // Swap two tokens, possibly across lines.
            1 => {
                let mut tokens: Vec<&str> = text.split(' ').collect();
                let (a, b) = (g.usize_range(0, tokens.len()), g.usize_range(0, tokens.len()));
                tokens.swap(a, b);
                tokens.join(" ")
            }
            // Replace one line's value with a hostile one.
            2 => {
                lines[at] = format!("{key} {bad}");
                lines.join("\n")
            }
            // Name the campaign with a hostile name.
            3 => {
                const PARTS: [&str; 10] =
                    ["grid", "\"", ",", "/", "..", ".", "\n", "\u{e9}", "_-9", " "];
                let name: String = (0..g.usize_range(1, 5))
                    .map(|_| PARTS[g.usize_range(0, PARTS.len())])
                    .collect();
                lines.insert(at, format!("name {name}"));
                lines.join("\n")
            }
            // Add a variant that assigns a hostile value or banned key.
            _ => {
                let assignment = if g.bool() { bad.to_string() } else { format!("broadcast_p {bad}") };
                lines.insert(at, format!("variant {assignment}"));
                lines.join("\n")
            }
        };
        match parse_caught(&mutated)? {
            Err(e) => prop_assert!(e.starts_with("line "), "error without a line: {e} for {mutated:?}"),
            Ok(spec) => {
                let safe = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-');
                prop_assert!(
                    !spec.name.starts_with('.') && spec.name.bytes().all(safe),
                    "unsafe name {:?} accepted from {mutated:?}",
                    spec.name
                );
                prop_assert_eq!(spec.normalized(), Ok(spec));
            }
        }
        Ok(())
    });
}
