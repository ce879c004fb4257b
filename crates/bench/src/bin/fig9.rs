//! Reproduces **Figure 9** of the paper: scatter of role number vs
//! energy consumption per node, for 802.11 / ODPM / Rcast at
//! R_pkt ∈ {0.4, 2.0}, T_pause = 600.
//!
//! The role number measures how often a node appears as an intermediate
//! in route caches — its packet-forwarding influence. Expected shapes:
//! 802.11's energy axis is degenerate (all nodes equal); Rcast's maximum
//! role number is clearly below ODPM's at high rate (the paper reads
//! ~300 vs ~500), i.e. randomization counteracts preferential
//! attachment.

use rcast_bench::{banner, config, run_reports, Scale};
use rcast_core::{AggregateReport, Scheme};
use rcast_metrics::{fmt_f64, RunningStats, TextTable};

fn main() {
    let scale = Scale::from_args();
    banner("Figure 9: role number vs energy consumption", scale);

    for (rate, panels) in [(0.4, "(a)(c)(e)"), (2.0, "(b)(d)(f)")] {
        println!("Fig. 9 {panels}: R_pkt = {rate}, T_pause = 600");
        let mut table = TextTable::new(vec![
            "scheme".into(),
            "max role".into(),
            "mean role".into(),
            "role p90".into(),
            "energy spread (J)".into(),
        ]);
        let mut maxima = Vec::new();
        let mut aggregates = Vec::new();
        for scheme in Scheme::PAPER_FIGURES {
            let cfg = config(scheme, rate, 600.0, scale);
            let agg =
                AggregateReport::from_runs(&run_reports(&cfg, scale), cfg.traffic.packet_bytes);
            let roles = agg.roles.as_f64();
            let stats = RunningStats::from_slice(&roles);
            let mut sorted = roles.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let p90 = sorted[(sorted.len() * 9 / 10).min(sorted.len() - 1)];
            let e = RunningStats::from_slice(&agg.mean_per_node_energy_j);
            maxima.push((scheme, stats.max()));
            table.add_row(vec![
                scheme.label().into(),
                fmt_f64(stats.max(), 0),
                fmt_f64(stats.mean(), 1),
                fmt_f64(p90, 0),
                format!("{}..{}", fmt_f64(e.min(), 0), fmt_f64(e.max(), 0)),
            ]);
            aggregates.push((scheme, agg));
        }
        println!("{}", table.render());

        // Per-node scatter sample for the two PSM-era schemes.
        for (scheme, agg) in aggregates
            .iter()
            .filter(|(s, _)| matches!(s, Scheme::Odpm | Scheme::Rcast))
        {
            let mut pairs: Vec<(f64, f64)> = agg
                .roles
                .as_f64()
                .into_iter()
                .zip(agg.mean_per_node_energy_j.iter().copied())
                .collect();
            pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
            let head: Vec<String> = pairs
                .iter()
                .take(8)
                .map(|(r, e)| format!("({}, {} J)", fmt_f64(*r, 0), fmt_f64(*e, 0)))
                .collect();
            println!("  {} top (role, energy): {}", scheme.label(), head.join(" "));
        }

        let odpm_max = maxima
            .iter()
            .find(|(s, _)| *s == Scheme::Odpm)
            .expect("present")
            .1;
        let rcast_max = maxima
            .iter()
            .find(|(s, _)| *s == Scheme::Rcast)
            .expect("present")
            .1;
        println!(
            "  Rcast max role ({}) below ODPM max role ({}): {}\n",
            fmt_f64(rcast_max, 0),
            fmt_f64(odpm_max, 0),
            if rcast_max < odpm_max { "ok" } else { "MISMATCH" }
        );
    }
}
