//! Call-graph semantics: cross-crate resolution, trait-method dispatch,
//! cycles, deterministic ordering — and the differential test pinning
//! the acceptance criterion for replacing D006: every allocation the
//! old hand-maintained hot-function name list guarded is found by D007
//! reachability, with no list to maintain.

use rcast_lint::callgraph::CallGraph;
use rcast_lint::{check_sources, Finding};

/// PR 4's hand-maintained D006 hot-function list, frozen at the moment
/// of its deletion. D007 must cover every one of these by reachability
/// alone.
const OLD_D006_HOT_FUNCTIONS: &[&str] = &[
    "step_interval",
    "run_interval_into",
    "process_delivery",
    "dispatch",
    "send_unicast",
    "send_broadcast",
    "transmit",
    "advance",
    "apply_faults",
    "account_energy",
    "suppress_reply_storm",
    "receive_ref",
    "destinations_into",
    "try_reserve",
    "snapshot_into",
    "run_interval_observed",
    "record_event",
    "record_span",
    "end_interval",
    "run_cell_seed",
];

/// Old hot functions the real tree has since folded into another, with
/// the function that absorbed each: the MAC's two interval entry points
/// became the one generic `run_interval`. The successor must be hot in
/// the real tree, and the old name must really be gone.
const FOLDED_SINCE: &[(&str, &str)] = &[
    ("run_interval_into", "run_interval"),
    ("run_interval_observed", "run_interval"),
];

/// A fixture workspace mirroring the real hot-path topology across six
/// simulation crates, with one `.clone()` planted in every function the
/// old D006 list guarded.
fn mirror_workspace() -> Vec<(String, String)> {
    let files: &[(&str, &str)] = &[
        (
            "crates/sweep/src/run.rs",
            "pub fn run_cell_seed(sim: &mut Simulation) -> Report {
    let report = sim.step_interval();
    report.clone()
}
",
        ),
        (
            "crates/core/src/sim.rs",
            "impl Simulation {
    pub fn step_interval(&mut self) -> Report {
        self.mobility.snapshot_into();
        self.neighbors.advance();
        self.apply_faults();
        self.traffic.destinations_into();
        self.dispatch();
        self.mac.run_interval_into();
        self.mac.run_interval_observed(&mut self.ledger);
        self.process_delivery();
        self.account_energy();
        self.report.clone()
    }
    fn dispatch(&mut self) {
        self.send_unicast();
        self.send_broadcast();
        let _ = self.work.clone();
    }
    fn send_unicast(&mut self) {
        let _ = self.frame.clone();
    }
    fn send_broadcast(&mut self) {
        let _ = self.frame.clone();
    }
    fn process_delivery(&mut self) {
        self.router.receive_ref();
        let _ = self.delivered.clone();
    }
    fn apply_faults(&mut self) {
        let _ = self.plan.clone();
    }
    fn account_energy(&mut self) {
        let _ = self.meter.clone();
    }
}
",
        ),
        (
            "crates/core/src/routing.rs",
            "impl RouterNode {
    pub fn receive_ref(&mut self) {
        let _ = self.packet.clone();
    }
}
impl PacketArena {
    pub fn try_reserve(&mut self) {
        let _ = self.slab.clone();
    }
}
",
        ),
        (
            "crates/mobility/src/incremental.rs",
            "impl NeighborIndex {
    pub fn advance(&mut self) {
        let _ = self.tables.clone();
    }
    pub fn snapshot_into(&self) {
        let _ = self.grid.clone();
    }
}
",
        ),
        (
            "crates/mac/src/interval.rs",
            "impl MacLayer {
    pub fn run_interval_into(&mut self) {
        self.channel.transmit();
        self.suppress_reply_storm();
        self.arena.try_reserve();
        let _ = self.queues.clone();
    }
    pub fn run_interval_observed(&mut self, l: &mut Ledger) {
        l.record_event();
        l.record_span();
        l.end_interval();
        let _ = self.windows.clone();
    }
    fn suppress_reply_storm(&mut self) {
        let _ = self.batch.clone();
    }
}
impl Channel {
    pub fn transmit(&mut self) {
        let _ = self.loss.clone();
    }
}
",
        ),
        (
            "crates/obs/src/ledger.rs",
            "impl Ledger {
    pub fn record_event(&mut self) {
        let _ = self.events.clone();
    }
    pub fn record_span(&mut self) {
        let _ = self.spans.clone();
    }
    pub fn end_interval(&mut self) {
        let _ = self.series.clone();
    }
}
",
        ),
        (
            "crates/traffic/src/schedule.rs",
            "impl Schedule {
    pub fn destinations_into(&mut self) {
        let _ = self.flows.clone();
    }
}
",
        ),
    ];
    files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

/// The function a D007 finding's witness chain terminates in — i.e. the
/// function that contains the flagged allocation.
fn chain_terminal(f: &Finding) -> &str {
    let open = f.message.find("(`").expect("witness chain present") + 2;
    let close = f.message[open..].find("`)").expect("chain closes") + open;
    f.message[open..close]
        .split(" → ")
        .last()
        .expect("non-empty chain")
}

#[test]
fn d007_covers_every_function_the_old_d006_list_guarded() {
    let findings = check_sources(&mirror_workspace());
    let d007: Vec<&Finding> = findings.iter().filter(|f| f.rule == "D007").collect();
    // One planted `.clone()` per old hot function, all flagged.
    assert_eq!(d007.len(), OLD_D006_HOT_FUNCTIONS.len());
    for name in OLD_D006_HOT_FUNCTIONS {
        assert!(
            d007.iter().any(|f| chain_terminal(f) == *name),
            "old D006 hot function `{name}` lost its allocation guard"
        );
    }
}

#[test]
fn reachability_is_a_superset_of_the_old_list_in_the_mirror() {
    let graph = CallGraph::build(&mirror_workspace());
    let hot = graph.hot_function_names();
    for name in OLD_D006_HOT_FUNCTIONS {
        assert!(
            hot.iter().any(|h| h == name),
            "`{name}` not reachable from the entry points"
        );
    }
}

#[test]
fn the_real_workspace_closure_still_covers_every_old_hot_function() {
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = rcast_lint::find_workspace_root(&manifest).expect("workspace root");
    let files = rcast_lint::collect_rust_files(&root).expect("walk workspace");
    let sources: Vec<(String, String)> = files
        .into_iter()
        .map(|rel| {
            let text = std::fs::read_to_string(root.join(&rel)).expect("read source");
            (rel, text)
        })
        .collect();
    let graph = CallGraph::build(&sources);
    let hot = graph.hot_function_names();
    for &(old, _) in FOLDED_SINCE {
        assert!(
            graph.nodes_named(&[old]).is_empty(),
            "`{old}` is back in the tree: drop it from FOLDED_SINCE"
        );
    }
    for &name in OLD_D006_HOT_FUNCTIONS {
        let name = FOLDED_SINCE
            .iter()
            .find(|&&(old, _)| old == name)
            .map_or(name, |&(_, new)| new);
        assert!(
            hot.iter().any(|h| h == name),
            "real-tree regression: `{name}` fell out of the hot closure"
        );
    }
}

#[test]
fn cross_crate_method_calls_resolve() {
    let graph = CallGraph::build(&mirror_workspace());
    let reach = graph.reachable_from(rcast_lint::HOT_ENTRY_POINTS);
    let transmit = graph
        .nodes
        .iter()
        .position(|n| n.item.name == "transmit")
        .expect("transmit node");
    assert!(reach.reached.contains(&transmit));
    assert_eq!(
        graph.witness_chain(&reach, transmit),
        "step_interval → run_interval_into → transmit"
    );
}

#[test]
fn trait_method_dispatch_over_approximates_to_every_impl() {
    let sources = vec![(
        "crates/mac/src/power.rs".to_string(),
        "pub trait Power {
    fn doze(&mut self) {
        let _ = self.default_state.clone();
    }
}
impl Power for Psm {
    fn doze(&mut self) {
        let _ = self.psm_state.clone();
    }
}
impl Power for Rcast {
    fn doze(&mut self) {
        let _ = self.rcast_state.clone();
    }
}
pub fn step_interval(node: &mut dyn Power) {
    node.doze();
}
"
        .to_string(),
    )];
    let findings = check_sources(&sources);
    // `.doze()` resolves to the trait default AND both impls: all three
    // bodies are audited (lines 3, 8, 13).
    let lines: Vec<u32> = findings
        .iter()
        .filter(|f| f.rule == "D007")
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, vec![3, 8, 13]);
}

#[test]
fn cycles_terminate_and_stay_reachable() {
    let sources = vec![(
        "crates/dsr/src/node.rs".to_string(),
        "pub fn step_interval() {
    ping();
}
fn ping() {
    pong();
    let _ = [1u32].to_vec();
}
fn pong() {
    ping();
    let _ = [2u32].to_vec();
}
"
        .to_string(),
    )];
    let graph = CallGraph::build(&sources);
    let reach = graph.reachable_from(rcast_lint::HOT_ENTRY_POINTS);
    assert_eq!(reach.reached.len(), 3, "entry + both cycle members");
    let findings = check_sources(&sources);
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == "D007")
            .map(|f| f.line)
            .collect::<Vec<_>>(),
        vec![6, 10]
    );
}

#[test]
fn finding_order_is_deterministic_and_input_order_independent() {
    let forward = mirror_workspace();
    let mut backward = forward.clone();
    backward.reverse();
    let a = check_sources(&forward);
    let b = check_sources(&backward);
    assert_eq!(a, b, "findings must not depend on file discovery order");
    let keys: Vec<(&str, u32, u32, &str)> = a
        .iter()
        .map(|f| (f.path.as_str(), f.line, f.col, f.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "(path, line, col, rule) report order");
}
