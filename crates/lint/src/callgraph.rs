//! Workspace call-graph construction and hot-path reachability.
//!
//! D007 replaces PR 4's hand-maintained hot-function name list with a
//! computed property: a function is *hot* when it is reachable, through
//! the call graph, from one of the declared steady-state entry points
//! ([`HOT_ENTRY_POINTS`]). The graph is built from the item parser's
//! `fn` inventory over every simulation-crate library file, with
//! **name-based dispatch resolution**:
//!
//! * `callee(…)` and `module::callee(…)` resolve to every workspace
//!   function named `callee` that takes no `self` receiver;
//! * `recv.method(…)` resolves to every workspace function named
//!   `method` that *does* take `self` — which over-approximates trait
//!   dispatch (every impl of a same-named method is an edge) and
//!   under-approximates nothing the workspace defines;
//! * `Type::method(…)` resolves within the impls of `Type` when the
//!   workspace has any, and to **no** edge otherwise (an uppercase
//!   qualifier the workspace never implements is a std/external type:
//!   `Vec::new`, `Arc::clone`); `Self::method(…)` uses the enclosing
//!   impl's type.
//!
//! Over-approximation is the sound direction for this rule: a false
//! edge can only *add* audited allocation sites (escaped case by case
//! with `// det: hot-ok — <reason>`), never hide one. The limits are
//! spelled out in DESIGN.md §13.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};
use crate::parser::{code_indices, parse_fns, FnItem, KEYWORDS};
use crate::project::{classify, FileKind};

/// The declared steady-state entry points: the per-interval drivers the
/// simulation, observability and sweep layers expose. Everything they
/// transitively call is hot; nothing else needs registering by hand.
/// Keep in sync with DESIGN.md §13.
pub const HOT_ENTRY_POINTS: &[&str] = &["run_cell_seed", "run_interval", "step_interval"];

/// One function node in the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative `/`-separated path of the defining file.
    pub path: String,
    /// The parsed item.
    pub item: FnItem,
    /// Index of the defining file in [`CallGraph::files`].
    pub file: usize,
}

/// One parsed simulation-library file, kept so rules can rescan bodies.
#[derive(Debug)]
pub struct GraphFile {
    /// Workspace-relative path.
    pub path: String,
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// Indices of the non-comment tokens into `tokens`.
    pub code: Vec<usize>,
}

/// The workspace call graph over simulation-crate library code.
#[derive(Debug)]
pub struct CallGraph {
    /// Parsed files, in sorted path order.
    pub files: Vec<GraphFile>,
    /// Function nodes, in (file, body-start) order.
    pub nodes: Vec<FnNode>,
    /// Callee node ids per node.
    pub edges: Vec<BTreeSet<usize>>,
}

/// The result of a reachability query: the reachable node set plus one
/// shortest witness chain per node, for diagnostics.
#[derive(Debug)]
pub struct Reachability {
    /// Reachable node ids.
    pub reached: BTreeSet<usize>,
    /// BFS parent per reached node (`None` for roots).
    pub parent: BTreeMap<usize, Option<usize>>,
}

impl CallGraph {
    /// Builds the graph from `(path, source)` pairs. Files that are not
    /// simulation-crate library code are ignored — the hot path never
    /// leaves the sim crates, and tests/binaries allocate freely.
    pub fn build(sources: &[(String, String)]) -> CallGraph {
        let mut files = Vec::new();
        let mut nodes = Vec::new();
        for (path, source) in sources {
            let class = classify(path);
            if !class.is_sim_crate() || class.kind != FileKind::Lib {
                continue;
            }
            let tokens = crate::lexer::lex(source);
            let code = code_indices(&tokens);
            let fns = parse_fns(&tokens, &code);
            let file_idx = files.len();
            for item in fns {
                nodes.push(FnNode { path: path.clone(), item, file: file_idx });
            }
            files.push(GraphFile { path: path.clone(), tokens, code });
        }

        // Resolution indices. BTreeMap keeps edge construction (and so
        // every downstream report) independent of input order.
        let mut by_name_self: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_name_free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_type_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut impl_types: BTreeSet<&str> = BTreeSet::new();
        for (id, node) in nodes.iter().enumerate() {
            let name = node.item.name.as_str();
            if node.item.has_self {
                by_name_self.entry(name).or_default().push(id);
            } else {
                by_name_free.entry(name).or_default().push(id);
            }
            if let Some(ty) = node.item.self_type.as_deref() {
                impl_types.insert(ty);
                by_type_name.entry((ty, name)).or_default().push(id);
            }
        }

        let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nodes.len()];
        for (id, node) in nodes.iter().enumerate() {
            let file = &files[node.file];
            let tok = |i: usize| -> &Token { &file.tokens[file.code[i]] };
            let (start, end) = node.item.body;
            for i in start..end.min(file.code.len()) {
                let t = tok(i);
                let callable =
                    t.kind == TokenKind::Ident && !KEYWORDS.contains(&t.text.as_str());
                if !callable || !call_follows(file, i, end) {
                    continue;
                }
                let name = t.text.as_str();
                let targets: Vec<usize> = if i >= 1 && tok(i - 1).is_punct('.') {
                    // `recv.method(…)` — every self-taking `method`.
                    by_name_self.get(name).cloned().unwrap_or_default()
                } else if i >= 2 && tok(i - 1).is_punct(':') && tok(i - 2).is_punct(':') {
                    let qualifier = (i >= 3).then(|| tok(i - 3)).filter(|q| {
                        q.kind == TokenKind::Ident || q.is_word("Self")
                    });
                    match qualifier {
                        Some(q) if q.is_word("Self") => node
                            .item
                            .self_type
                            .as_deref()
                            .and_then(|ty| by_type_name.get(&(ty, name)).cloned())
                            .unwrap_or_default(),
                        Some(q) if q.text.chars().next().is_some_and(char::is_uppercase) => {
                            if impl_types.contains(q.text.as_str()) {
                                by_type_name.get(&(q.text.as_str(), name)).cloned().unwrap_or_default()
                            } else {
                                Vec::new() // std/external type: no edge
                            }
                        }
                        // `module::callee(…)` or an unreadable qualifier.
                        _ => by_name_free.get(name).cloned().unwrap_or_default(),
                    }
                } else if i >= 1 && tok(i - 1).is_word("fn") {
                    continue; // a declaration, not a call
                } else {
                    by_name_free.get(name).cloned().unwrap_or_default()
                };
                for target in targets {
                    if target != id {
                        edges[id].insert(target);
                    }
                }
            }
        }
        CallGraph { files, nodes, edges }
    }

    /// Node ids whose function name is in `names`.
    pub fn nodes_named(&self, names: &[&str]) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| names.contains(&n.item.name.as_str()))
            .map(|(id, _)| id)
            .collect()
    }

    /// BFS from every node whose name is in `roots`, in deterministic
    /// (node-id) order. Roots are themselves reachable.
    pub fn reachable_from(&self, roots: &[&str]) -> Reachability {
        self.reachable_from_excluding(roots, &BTreeSet::new())
    }

    /// Like [`reachable_from`](Self::reachable_from), but never enters a
    /// node in `cold` — the mechanism behind the `// det: cold — <reason>`
    /// boundary pragma: a function declared cold (construction, teardown,
    /// rare lifecycle events like a fault-rejoin reboot) is cut out of
    /// the steady-state closure together with everything only reachable
    /// through it.
    pub fn reachable_from_excluding(&self, roots: &[&str], cold: &BTreeSet<usize>) -> Reachability {
        let mut reached = BTreeSet::new();
        let mut parent = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        for id in self.nodes_named(roots) {
            if !cold.contains(&id) && reached.insert(id) {
                parent.insert(id, None);
                queue.push_back(id);
            }
        }
        while let Some(id) = queue.pop_front() {
            for &callee in &self.edges[id] {
                if !cold.contains(&callee) && reached.insert(callee) {
                    parent.insert(callee, Some(id));
                    queue.push_back(callee);
                }
            }
        }
        Reachability { reached, parent }
    }

    /// The names of every function reachable from [`HOT_ENTRY_POINTS`],
    /// sorted and deduplicated — the computed successor of the old D006
    /// name list, exposed for the differential test.
    pub fn hot_function_names(&self) -> Vec<String> {
        let reach = self.reachable_from(HOT_ENTRY_POINTS);
        let mut names: Vec<String> = reach
            .reached
            .iter()
            .map(|&id| self.nodes[id].item.name.clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// One shortest call chain `root → … → node`, rendered for
    /// diagnostics (`step_interval → dispatch → send_broadcast`).
    pub fn witness_chain(&self, reach: &Reachability, node: usize) -> String {
        let mut chain = Vec::new();
        let mut cur = Some(node);
        while let Some(id) = cur {
            chain.push(self.nodes[id].item.name.clone());
            cur = reach.parent.get(&id).copied().flatten();
        }
        chain.reverse();
        chain.join(" → ")
    }
}

/// `true` when code-token `i` of `file` is followed by a call's opening
/// paren, allowing one turbofish (`sum::<f64>(…)`) in between.
fn call_follows(file: &GraphFile, i: usize, end: usize) -> bool {
    let tok = |j: usize| -> &Token { &file.tokens[file.code[j]] };
    let n = end.min(file.code.len());
    if i + 1 < n && tok(i + 1).is_punct('(') {
        return true;
    }
    // `name::<T, …>(…)`
    if i + 3 < n && tok(i + 1).is_punct(':') && tok(i + 2).is_punct(':') && tok(i + 3).is_punct('<')
    {
        let mut depth = 0i32;
        let mut j = i + 3;
        while j < n {
            let t = tok(j);
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return j + 1 < n && tok(j + 1).is_punct('(');
                }
            } else if t.is_punct(';') || t.is_punct('{') {
                return false;
            }
            j += 1;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        CallGraph::build(&owned)
    }

    #[test]
    fn direct_and_method_calls_produce_edges() {
        let g = graph(&[(
            "crates/mac/src/lib.rs",
            "pub fn step_interval(q: &Queue) { helper(); q.drain_front(); }\n\
             fn helper() {}\n\
             pub struct Queue;\n\
             impl Queue { pub fn drain_front(&self) {} }\n",
        )]);
        let names = g.hot_function_names();
        assert_eq!(names, ["drain_front", "helper", "step_interval"]);
    }

    #[test]
    fn std_typed_calls_produce_no_edges() {
        let g = graph(&[(
            "crates/mac/src/lib.rs",
            "pub fn step_interval() { let v = Vec::new(); let _ = v.len(); }\n\
             pub fn new() -> u32 { 0 }\n",
        )]);
        // `Vec::new` must not resolve to the workspace's free `fn new`.
        assert_eq!(g.hot_function_names(), ["step_interval"]);
    }

    #[test]
    fn self_calls_resolve_within_the_impl() {
        let g = graph(&[(
            "crates/core/src/sim.rs",
            "pub struct Sim;\n\
             impl Sim {\n\
                 pub fn step_interval(&mut self) { Self::tick_all(); }\n\
                 fn tick_all() {}\n\
             }\n\
             pub struct Other;\n\
             impl Other { pub fn tick_all() {} }\n",
        )]);
        let reach = g.reachable_from(HOT_ENTRY_POINTS);
        let reached: Vec<&str> = reach
            .reached
            .iter()
            .map(|&id| g.nodes[id].item.name.as_str())
            .collect();
        assert_eq!(reached, ["step_interval", "tick_all"]);
        // The Other::tick_all impl is NOT reached (typed resolution).
        let other_id = g
            .nodes
            .iter()
            .position(|n| n.item.self_type.as_deref() == Some("Other"))
            .unwrap();
        assert!(!reach.reached.contains(&other_id));
    }

    #[test]
    fn witness_chain_names_the_entry_point_first() {
        let g = graph(&[(
            "crates/mac/src/lib.rs",
            "pub fn run_interval() { middle(); }\n\
             fn middle() { leaf(); }\n\
             fn leaf() {}\n",
        )]);
        let reach = g.reachable_from(HOT_ENTRY_POINTS);
        let leaf = g.nodes.iter().position(|n| n.item.name == "leaf").unwrap();
        assert_eq!(g.witness_chain(&reach, leaf), "run_interval → middle → leaf");
    }

    #[test]
    fn non_sim_files_contribute_no_nodes() {
        let g = graph(&[
            ("crates/bench/src/lib.rs", "pub fn step_interval() { helper(); }\nfn helper() {}\n"),
            ("crates/mac/tests/t.rs", "fn step_interval() {}\n"),
        ]);
        assert!(g.nodes.is_empty());
    }
}
