//! The ruleset: what each rule protects and how it is detected.
//!
//! Every rule guards one way the simulator's headline property — runs
//! are byte-identical for a given `(config, seed)` at any thread width —
//! can silently rot:
//!
//! * **D001** — wall-clock reads (`std::time::Instant`/`SystemTime`)
//!   make results depend on the host. Only the `bench`/`testkit`
//!   harness crates and the analyzer itself (`lint`, which times its
//!   own pass) may time things.
//! * **D002** — iterating a `HashMap`/`HashSet` in a simulation crate
//!   visits entries in `RandomState` order, which differs per process.
//!   Sites that restore order explicitly carry a
//!   `// det: ordered — <reason>` pragma; everything else uses
//!   `BTreeMap`/`BTreeSet`.
//! * **D003** — `RandomState`/`DefaultHasher` seed from the
//!   environment, and external RNGs bypass the labelled
//!   `rcast_engine::rng` streams that make draws replayable.
//! * **D004** — `unsafe` code could break any invariant from under the
//!   checker; every crate root must carry `#![forbid(unsafe_code)]` and
//!   no `unsafe` token may appear anywhere. The single sanctioned
//!   exception is a `GlobalAlloc` shim: a crate root may downgrade to
//!   `#![deny(unsafe_code)]` and individual `unsafe` tokens may appear
//!   when a `// det: unsafe-ok — <reason>` pragma covers the line.
//! * **D005** — `println!`-family output from library code corrupts the
//!   CSV/JSON streams the figure pipeline parses; printing belongs to
//!   the binaries and the bench/report layer.
//! * **D007** — heap allocation (`Vec::new()`, `vec![..]`,
//!   `::with_capacity(..)`, `Box::new(..)`, `format!(..)`, `.to_vec()`,
//!   `.clone()`; not `.collect()`, whose target type a token scan cannot
//!   see) anywhere **reachable from the declared steady-state entry points**
//!   through the workspace call graph (see [`crate::callgraph`])
//!   erodes the zero-allocation steady state DESIGN.md §10 pins down.
//!   This is the semantic successor of PR 4's D006, which guarded a
//!   hand-maintained hot-function name list; the list is gone and the
//!   closure is computed. Audited event-path allocations carry a
//!   `// det: hot-ok — <reason>` pragma (on the site or the `fn`
//!   declaration); construction/teardown functions are cut out of the
//!   closure entirely with `// det: cold — <reason>` on the `fn` line.
//! * **D008** — shared mutable state (`Mutex`, `RwLock`, `RefCell`,
//!   `Cell`, `Atomic*`, `static mut`, their order-sensitive methods)
//!   or unordered-map iteration captured inside a closure passed to
//!   `ScopedPool::run`/`map`/`map_grid` makes worker scheduling
//!   observable. Deliberately order-free uses (commutative counters)
//!   carry a `// det: shared-ok — <reason>` pragma.
//! * **D009** — `f64` accumulation (`.sum()`, `.fold()`, `.product()`,
//!   `+=` in loops) over an unordered source, or into an accumulator
//!   captured across the pool seam: float addition is not associative,
//!   so the reduction order silently leaks into `summarize95` and the
//!   sweep artifacts. Canonically-ordered reductions that trip the
//!   detector carry a `// det: reduce-ok — <reason>` pragma.
//! * **H001** — `#[ignore]` without a reason string hides dead tests.
//! * **H002** — crate roots must keep `#![deny(missing_docs)]` (or
//!   carry a `// lint: allow missing_docs — <reason>` pragma).

use crate::callgraph::{CallGraph, HOT_ENTRY_POINTS};
use crate::lexer::{lex, Token, TokenKind};
use crate::project::{FileClass, FileKind, SIM_CRATES, WALL_CLOCK_ALLOWED};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id (`D001` … `H002`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Sorts findings into the stable report order: path, then line, then
/// column, then rule id.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
}

/// Methods that observe a hash container's iteration order. `retain`
/// is included: its closure runs side effects in iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Identifiers banned by D003 wherever they appear as code.
const D003_IDENTS: &[&str] = &[
    "RandomState",
    "DefaultHasher",
    "SipHasher",
    "SipHasher13",
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "StdRng",
    "SmallRng",
    "from_entropy",
    "getrandom",
];

/// Macros banned by D005 in simulation-library code.
const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

/// Shared-state *type* names D008 bans inside parallel closures.
const D008_TYPES: &[&str] = &[
    "Mutex", "RwLock", "RefCell", "Cell", "UnsafeCell", "OnceCell", "OnceLock", "LazyCell",
    "LazyLock",
];

/// Order-sensitive *method* names D008 bans inside parallel closures:
/// the atomic RMW family plus lock/borrow acquisition. These catch a
/// captured `AtomicU32`/`Mutex` whose type name only appears at the
/// declaration site outside the closure.
const D008_METHODS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "lock",
    "try_lock",
    "borrow_mut",
];

/// Float-reduction method names D009 watches.
const REDUCE_METHODS: &[&str] = &["sum", "product", "fold"];

/// Pool methods whose argument list is a parallel seam. `map_grid` and
/// `map_shards` are unambiguous; `run` and `map` additionally require a
/// pool-shaped receiver (see [`pool_receiver`]) so iterator `map` stays
/// untouched.
const POOL_METHODS: &[&str] = &["run", "map", "map_grid", "map_shards"];

/// Per-file line facts needed for pragma resolution.
struct LineFacts {
    /// Lines (1-based) holding at least one non-comment token.
    has_code: Vec<bool>,
    /// Lines holding at least one comment token.
    has_comment: Vec<bool>,
    /// Lines holding a well-formed `det: ordered` pragma.
    det_pragma: Vec<bool>,
    /// Lines holding a well-formed `det: unsafe-ok` pragma.
    unsafe_pragma: Vec<bool>,
    /// Lines holding a well-formed `det: hot-ok` pragma.
    hot_pragma: Vec<bool>,
    /// Lines holding a well-formed `det: cold` pragma.
    cold_pragma: Vec<bool>,
    /// Lines holding a well-formed `det: shared-ok` pragma.
    shared_pragma: Vec<bool>,
    /// Lines holding a well-formed `det: reduce-ok` pragma.
    reduce_pragma: Vec<bool>,
    /// Lines holding a well-formed `lint: allow missing_docs` pragma.
    docs_pragma: Vec<bool>,
}

impl LineFacts {
    fn build(tokens: &[Token]) -> Self {
        let last = tokens.iter().map(|t| t.line as usize).max().unwrap_or(0);
        let mut f = LineFacts {
            has_code: vec![false; last + 2],
            has_comment: vec![false; last + 2],
            det_pragma: vec![false; last + 2],
            unsafe_pragma: vec![false; last + 2],
            hot_pragma: vec![false; last + 2],
            cold_pragma: vec![false; last + 2],
            shared_pragma: vec![false; last + 2],
            reduce_pragma: vec![false; last + 2],
            docs_pragma: vec![false; last + 2],
        };
        for t in tokens {
            let l = t.line as usize;
            if t.kind == TokenKind::Comment {
                f.has_comment[l] = true;
                if pragma_reason(&t.text, "det: ordered") {
                    f.det_pragma[l] = true;
                }
                if pragma_reason(&t.text, "det: unsafe-ok") {
                    f.unsafe_pragma[l] = true;
                }
                if pragma_reason(&t.text, "det: hot-ok") {
                    f.hot_pragma[l] = true;
                }
                if pragma_reason(&t.text, "det: cold") {
                    f.cold_pragma[l] = true;
                }
                if pragma_reason(&t.text, "det: shared-ok") {
                    f.shared_pragma[l] = true;
                }
                if pragma_reason(&t.text, "det: reduce-ok") {
                    f.reduce_pragma[l] = true;
                }
                if pragma_reason(&t.text, "lint: allow missing_docs") {
                    f.docs_pragma[l] = true;
                }
            } else {
                f.has_code[l] = true;
            }
        }
        f
    }

    /// `true` when a `det: ordered` pragma covers `line`: on the line
    /// itself (trailing comment) or in the contiguous comment block
    /// directly above it (blank lines break the block).
    fn det_covers(&self, line: u32) -> bool {
        self.covers(&self.det_pragma, line)
    }

    fn unsafe_covers(&self, line: u32) -> bool {
        self.covers(&self.unsafe_pragma, line)
    }

    fn hot_covers(&self, line: u32) -> bool {
        self.covers(&self.hot_pragma, line)
    }

    fn cold_covers(&self, line: u32) -> bool {
        self.covers(&self.cold_pragma, line)
    }

    fn shared_covers(&self, line: u32) -> bool {
        self.covers(&self.shared_pragma, line)
    }

    fn reduce_covers(&self, line: u32) -> bool {
        self.covers(&self.reduce_pragma, line)
    }

    fn docs_covers(&self, line: u32) -> bool {
        self.covers(&self.docs_pragma, line)
    }

    fn covers(&self, pragma: &[bool], line: u32) -> bool {
        let line = line as usize;
        if line >= self.has_code.len() {
            return false;
        }
        if pragma[line] {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 && self.has_comment[l] && !self.has_code[l] {
            if pragma[l] {
                return true;
            }
            l -= 1;
        }
        false
    }
}

/// `true` when `text` is a pragma of the given head *with a non-empty
/// reason* after an em- or ASCII dash. A pragma without a reason is
/// deliberately not honored: the reason is the artifact being enforced.
fn pragma_reason(text: &str, head: &str) -> bool {
    let t = text.trim();
    let Some(rest) = t.strip_prefix(head) else {
        return false;
    };
    let rest = rest.trim_start();
    let reason = rest
        .strip_prefix('—')
        .or_else(|| rest.strip_prefix("--"))
        .or_else(|| rest.strip_prefix('-'))
        .or_else(|| rest.strip_prefix(':'));
    reason.is_some_and(|r| !r.trim().is_empty())
}

/// Runs every per-file rule over one file's source.
///
/// `path` is used only for reporting; `class` decides which rules
/// apply. This is the unit the fixture tests drive directly. The
/// workspace-level D007 (allocation reachability) needs the cross-file
/// call graph and therefore lives in [`check_sources`].
pub fn check_file(path: &str, source: &str, class: &FileClass) -> Vec<Finding> {
    let tokens = lex(source);
    let facts = LineFacts::build(&tokens);
    let mut out = Vec::new();
    d001_wall_clock(path, &tokens, class, &mut out);
    d002_hash_iteration(path, &tokens, class, &facts, &mut out);
    d003_environment_randomness(path, &tokens, &mut out);
    d004_unsafe(path, &tokens, class, &facts, &mut out);
    d005_print(path, &tokens, class, &mut out);
    d008_parallel_closure(path, &tokens, class, &facts, &mut out);
    d009_float_reduction(path, &tokens, class, &facts, &mut out);
    h001_ignore_reason(path, &tokens, &mut out);
    h002_missing_docs(path, &tokens, class, &facts, &mut out);
    sort_findings(&mut out);
    out.dedup();
    out
}

/// Runs the whole ruleset — per-file rules plus the call-graph D007 —
/// over a set of `(workspace-relative path, source)` pairs, returning
/// findings in stable report order. This is what `lint_workspace` and
/// the fixture-workspace tests drive.
pub fn check_sources(sources: &[(String, String)]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (path, source) in sources {
        let class = crate::project::classify(path);
        out.extend(check_file(path, source, &class));
    }
    let graph = CallGraph::build(sources);
    d007_alloc_reachability(&graph, &mut out);
    sort_findings(&mut out);
    out.dedup();
    out
}

fn code_tokens(tokens: &[Token]) -> Vec<&Token> {
    tokens.iter().filter(|t| t.kind != TokenKind::Comment).collect()
}

/// The names declared with a `HashMap`/`HashSet` type in this file:
/// field/binding annotations `name: …HashMap<…>` and inferred
/// `let name = HashMap::…` initializers. Shared by D002/D008/D009.
fn collect_hash_names(code: &[&Token]) -> Vec<String> {
    let mut hash_names: Vec<String> = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if !(t.is_word("HashMap") || t.is_word("HashSet")) {
            continue;
        }
        // Walk back through type-ish tokens (path `::` pairs included)
        // until the annotation colon of `name: …HashMap<…>` or the `=`
        // of an inferred `let name = …HashMap::new()` initializer.
        let mut j = i;
        while j > 0 {
            j -= 1;
            let b = code[j];
            if b.is_punct(':') {
                if j > 0 && code[j - 1].is_punct(':') {
                    j -= 1; // `::` inside a path: still in the type
                    continue;
                }
                if j > 0 && code[j - 1].kind == TokenKind::Ident {
                    hash_names.push(code[j - 1].text.clone());
                }
                break;
            }
            if b.is_punct('=') {
                if j > 0 && code[j - 1].kind == TokenKind::Ident {
                    hash_names.push(code[j - 1].text.clone());
                }
                break;
            }
            let type_ish = b.kind == TokenKind::Ident
                || b.is_punct('<')
                || b.is_punct('>')
                || b.is_punct(',')
                || b.is_punct('(')
                || b.is_punct(')')
                || b.is_punct('&')
                || b.kind == TokenKind::Lifetime;
            if !type_ish {
                break;
            }
        }
    }
    hash_names
}

/// The names in this file with visible floating-point evidence: a
/// `: … f64/f32 …` annotation (including container value types like
/// `HashMap<u32, f64>`) or a float-literal initializer (`= 0.0`,
/// `= 1f64`). D009's accumulation detectors only fire on these —
/// integer counters are exactly associative and must stay silent.
/// Cross-file field types are invisible to this heuristic; that
/// soundness limit is documented in DESIGN.md §13.
fn collect_float_names(code: &[&Token]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (i, t) in code.iter().enumerate() {
        let float_type = t.is_word("f64") || t.is_word("f32");
        let float_literal = t.kind == TokenKind::Number
            && (t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32"));
        if float_type {
            // Walk back through the type to the annotation colon.
            let mut j = i;
            while j > 0 {
                j -= 1;
                let b = code[j];
                if b.is_punct(':') {
                    if j > 0 && code[j - 1].is_punct(':') {
                        j -= 1;
                        continue;
                    }
                    if j > 0 && code[j - 1].kind == TokenKind::Ident {
                        names.push(code[j - 1].text.clone());
                    }
                    break;
                }
                let type_ish = b.kind == TokenKind::Ident
                    || b.is_punct('<')
                    || b.is_punct('>')
                    || b.is_punct(',')
                    || b.is_punct('(')
                    || b.is_punct(')')
                    || b.is_punct('[')
                    || b.is_punct(']')
                    || b.is_punct('&')
                    || b.kind == TokenKind::Lifetime;
                if !type_ish {
                    break;
                }
            }
        } else if float_literal
            && i >= 2
            && code[i - 1].is_punct('=')
            && code[i - 2].kind == TokenKind::Ident
        {
            names.push(code[i - 2].text.clone());
        }
    }
    names
}

fn d001_wall_clock(path: &str, tokens: &[Token], class: &FileClass, out: &mut Vec<Finding>) {
    if WALL_CLOCK_ALLOWED.contains(&class.crate_name.as_str()) {
        return;
    }
    for t in tokens {
        if t.is_word("Instant") || t.is_word("SystemTime") {
            out.push(Finding {
                path: path.to_string(),
                line: t.line,
                col: t.col,
                rule: "D001",
                message: format!(
                    "wall-clock type `{}` outside the allowlisted crates ({}); \
                     simulation results must be a pure function of (config, seed)",
                    t.text,
                    WALL_CLOCK_ALLOWED.join(", "),
                ),
            });
        }
    }
}

/// D002 works in two passes over the code tokens: first it collects the
/// names declared with a `HashMap`/`HashSet` type, then it flags any
/// iteration-order-observing use of those names — `name.iter()`-style
/// calls and `for … in` expressions mentioning the name — that no
/// pragma covers.
fn d002_hash_iteration(
    path: &str,
    tokens: &[Token],
    class: &FileClass,
    facts: &LineFacts,
    out: &mut Vec<Finding>,
) {
    if !class.is_sim_crate() {
        return;
    }
    let code = code_tokens(tokens);
    let hash_names = collect_hash_names(&code);
    if hash_names.is_empty() {
        return;
    }

    let report = |out: &mut Vec<Finding>, t: &Token, name: &str, how: &str| {
        out.push(Finding {
            path: path.to_string(),
            line: t.line,
            col: t.col,
            rule: "D002",
            message: format!(
                "{how} of `HashMap`/`HashSet` value `{name}` in simulation crate \
                 `{}` without a `// det: ordered — <reason>` pragma; iteration \
                 order is per-process random and leaks into results — use \
                 BTreeMap/BTreeSet or restore order explicitly and annotate",
                class.crate_name,
            ),
        });
    };

    // A finding is suppressed when the pragma covers the use site or
    // the first line of the statement it belongs to (multi-line method
    // chains anchor at the statement start).
    let suppressed = |code: &[&Token], idx: usize| {
        let line = code[idx].line;
        if facts.det_covers(line) {
            return true;
        }
        facts.det_covers(code[statement_start(code, idx)].line)
    };

    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || !hash_names.iter().any(|n| n == &t.text) {
            continue;
        }
        // `name . method (` with an order-observing method.
        if i + 3 < code.len()
            && code[i + 1].is_punct('.')
            && code[i + 2].kind == TokenKind::Ident
            && ITER_METHODS.contains(&code[i + 2].text.as_str())
            && code[i + 3].is_punct('(')
            && !suppressed(&code, i)
        {
            report(out, code[i + 2], &t.text, "order-observing method call");
        }
        // `for … in <expr mentioning name> {`. A following `.` defers
        // to the method-call branch above.
        let method_follows = code.get(i + 1).is_some_and(|n| n.is_punct('.'));
        if !method_follows {
            if let Some(for_idx) = enclosing_for_in(&code, i) {
                if !suppressed(&code, for_idx) && !suppressed(&code, i) {
                    report(out, t, &t.text, "`for` iteration");
                }
            }
        }
    }
}

/// The index of the first token of the statement `code[idx]` belongs
/// to (the token after the previous `;`/`{`/`}`, or 0).
fn statement_start(code: &[&Token], idx: usize) -> usize {
    let mut j = idx;
    while j > 0 {
        let t = code[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        j -= 1;
    }
    j
}

/// If `code[idx]` sits in the header of a `for … in header {` loop,
/// returns the index of the `for` token.
fn enclosing_for_in(code: &[&Token], idx: usize) -> Option<usize> {
    // Walk back to `in` then `for`, refusing to cross statement ends or
    // an opening `{` (which would mean we left the loop header).
    let mut saw_in = None;
    let mut j = idx;
    let mut depth = 0i32;
    while j > 0 {
        j -= 1;
        let t = code[j];
        if t.is_punct(')') || t.is_punct(']') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            depth -= 1;
            if depth < 0 {
                // The name is inside a call argument like `m.get(&k)`
                // within some larger expression; still fine to keep
                // walking for the `in`, the call parens just nest.
                depth = 0;
            }
        } else if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        } else if t.is_word("in") && depth == 0 {
            saw_in = Some(j);
        } else if t.is_word("for") && saw_in.is_some() {
            return Some(j);
        }
    }
    None
}

fn d003_environment_randomness(path: &str, tokens: &[Token], out: &mut Vec<Finding>) {
    let code = code_tokens(tokens);
    for (i, t) in code.iter().enumerate() {
        let banned = D003_IDENTS.contains(&t.text.as_str()) && t.kind == TokenKind::Ident;
        // An external-RNG path: the `rand` crate root used as `rand::`.
        let rand_path = t.is_word("rand")
            && i + 2 < code.len()
            && code[i + 1].is_punct(':')
            && code[i + 2].is_punct(':');
        if banned || rand_path {
            out.push(Finding {
                path: path.to_string(),
                line: t.line,
                col: t.col,
                rule: "D003",
                message: format!(
                    "environment-seeded hashing or external RNG `{}`; all \
                     randomness must flow through the named rcast_engine::rng \
                     streams so draws replay bit-identically",
                    t.text,
                ),
            });
        }
    }
}

fn d004_unsafe(
    path: &str,
    tokens: &[Token],
    class: &FileClass,
    facts: &LineFacts,
    out: &mut Vec<Finding>,
) {
    for t in tokens {
        if t.is_word("unsafe") && !facts.unsafe_covers(t.line) {
            out.push(Finding {
                path: path.to_string(),
                line: t.line,
                col: t.col,
                rule: "D004",
                message: "`unsafe` is banned workspace-wide: no invariant the \
                          determinism rules protect survives undefined behavior \
                          (a GlobalAlloc shim may annotate each line with \
                          `// det: unsafe-ok — <reason>`)"
                    .to_string(),
            });
        }
    }
    if class.is_crate_root && !has_inner_attr(tokens, "forbid", "unsafe_code") {
        // A crate hosting a pragma'd GlobalAlloc shim may downgrade to
        // `deny`, provided the attribute itself carries the pragma.
        let pragma_deny = inner_attr_line(tokens, "deny", "unsafe_code")
            .is_some_and(|line| facts.unsafe_covers(line));
        if !pragma_deny {
            out.push(Finding {
                path: path.to_string(),
                line: 1,
                col: 1,
                rule: "D004",
                message: "crate root is missing `#![forbid(unsafe_code)]` (or a \
                          `// det: unsafe-ok — <reason>`-annotated \
                          `#![deny(unsafe_code)]`)"
                    .to_string(),
            });
        }
    }
}

/// Looks for `attr ( arg )` anywhere in the token stream — i.e.
/// `#![attr(arg)]` once comments are stripped. Lexical matching is
/// enough: these idents only occur in attribute position.
fn has_inner_attr(tokens: &[Token], attr: &str, arg: &str) -> bool {
    inner_attr_line(tokens, attr, arg).is_some()
}

/// Like [`has_inner_attr`], but returns the line the attribute starts
/// on so pragma coverage can be checked against it.
fn inner_attr_line(tokens: &[Token], attr: &str, arg: &str) -> Option<u32> {
    let code = code_tokens(tokens);
    code.windows(4).find_map(|w| {
        (w[0].is_word(attr) && w[1].is_punct('(') && w[2].is_word(arg) && w[3].is_punct(')'))
            .then(|| w[0].line)
    })
}

fn d005_print(path: &str, tokens: &[Token], class: &FileClass, out: &mut Vec<Finding>) {
    let lib_of_sim = class.kind == FileKind::Lib
        && (class.is_sim_crate() || class.crate_name == "testkit");
    if !lib_of_sim {
        return;
    }
    let code = code_tokens(tokens);
    for w in code.windows(2) {
        if w[0].kind == TokenKind::Ident
            && PRINT_MACROS.contains(&w[0].text.as_str())
            && w[1].is_punct('!')
        {
            out.push(Finding {
                path: path.to_string(),
                line: w[0].line,
                col: w[0].col,
                rule: "D005",
                message: format!(
                    "`{}!` in library crate `{}`; stdout/stderr belong to the \
                     report/CLI layer — return data and let binaries print",
                    w[0].text, class.crate_name,
                ),
            });
        }
    }
}

/// D007: allocation reachability over the workspace call graph. Every
/// allocation pattern (`Vec::new(`, `vec![`, `::with_capacity(`,
/// `Box::new(`, `format!(`, `.to_vec(`, `.clone(`) inside a function
/// reachable from [`HOT_ENTRY_POINTS`] is flagged unless a
/// `// det: hot-ok — <reason>` pragma covers the allocation line *or*
/// the function's declaration line (an audited event-path handler).
/// Functions whose declaration carries `// det: cold — <reason>`
/// (construction, teardown, rare lifecycle work) are boundaries the
/// closure never enters. The finding message carries one shortest
/// witness chain from an entry point so the hot-path claim is
/// checkable by eye.
///
/// `.collect()` is deliberately not a pattern: whether it allocates
/// depends on its target type, which a token scan cannot see. Most
/// hot-path `collect`s build an inline `NodePath` (no heap until a
/// route outgrows it) or fill a caller's scratch buffer; flagging them
/// all would bury the real sites under pragmas. The dynamic gate
/// (`crates/bench/tests/zero_alloc.rs`) still counts what they do.
fn d007_alloc_reachability(graph: &CallGraph, out: &mut Vec<Finding>) {
    let facts: Vec<LineFacts> = graph
        .files
        .iter()
        .map(|f| LineFacts::build(&f.tokens))
        .collect();
    let cold: std::collections::BTreeSet<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| facts[n.file].cold_covers(n.item.line))
        .map(|(id, _)| id)
        .collect();
    let reach = graph.reachable_from_excluding(HOT_ENTRY_POINTS, &cold);
    for &id in &reach.reached {
        let node = &graph.nodes[id];
        if facts[node.file].hot_covers(node.item.line) {
            continue;
        }
        let file = &graph.files[node.file];
        let file_facts = &facts[node.file];
        let tok = |i: usize| -> &Token { &file.tokens[file.code[i]] };
        let (start, end) = node.item.body;
        let end = end.min(file.code.len());
        let chain = graph.witness_chain(&reach, id);
        let mut report = |t: &Token, what: &str| {
            if file_facts.hot_covers(t.line) {
                return;
            }
            out.push(Finding {
                path: file.path.clone(),
                line: t.line,
                col: t.col,
                rule: "D007",
                message: format!(
                    "{what} on the steady-state hot path (`{chain}`); the \
                     per-interval loop must not allocate (DESIGN.md §10) — \
                     reuse cleared scratch storage, or annotate a deliberate \
                     cold/warm-up allocation with `// det: hot-ok — <reason>`",
                ),
            });
        };
        // `Ty::ctor(`: the path-call allocations.
        let path_call = |i: usize, ty: &str, ctor: &str| {
            tok(i).is_word(ty)
                && i + 4 < end
                && tok(i + 1).is_punct(':')
                && tok(i + 2).is_punct(':')
                && tok(i + 3).is_word(ctor)
                && tok(i + 4).is_punct('(')
        };
        for i in start..end {
            let t = tok(i);
            if path_call(i, "Vec", "new") {
                report(t, "`Vec::new()`");
            }
            if path_call(i, "Box", "new") {
                report(t, "`Box::new(..)`");
            }
            if t.is_punct(':')
                && i + 3 < end
                && tok(i + 1).is_punct(':')
                && tok(i + 2).is_word("with_capacity")
                && tok(i + 3).is_punct('(')
            {
                report(tok(i + 2), "`::with_capacity(..)`");
            }
            if i + 2 < end && tok(i + 1).is_punct('!') {
                if t.is_word("vec") && tok(i + 2).is_punct('[') {
                    report(t, "`vec![..]`");
                } else if t.is_word("format") && tok(i + 2).is_punct('(') {
                    report(t, "`format!(..)`");
                }
            }
            if t.is_punct('.') && i + 2 < end && tok(i + 2).is_punct('(') {
                let m = tok(i + 1);
                if m.is_word("to_vec") {
                    report(m, "`.to_vec()`");
                } else if m.is_word("clone") {
                    report(m, "`.clone()`");
                }
            }
        }
    }
}

/// The parallel-seam arg regions of a file: for every call of a
/// [`POOL_METHODS`] name, the half-open code-token range between its
/// parentheses. `map`/`run` require a pool-shaped receiver.
fn pool_call_regions(code: &[&Token]) -> Vec<(usize, usize, &'static str)> {
    let mut regions = Vec::new();
    for (i, t) in code.iter().enumerate() {
        let Some(&method) = POOL_METHODS.iter().find(|m| t.is_word(m)) else {
            continue;
        };
        if i + 1 >= code.len() || !code[i + 1].is_punct('(') {
            continue;
        }
        let is_method_call = i >= 1 && code[i - 1].is_punct('.');
        if !is_method_call {
            continue;
        }
        if matches!(method, "run" | "map") && !pool_receiver(code, i - 1) {
            continue;
        }
        // Match the call's parentheses.
        let open = i + 1;
        let mut depth = 0i32;
        let mut close = open;
        for (j, u) in code.iter().enumerate().skip(open) {
            if u.is_punct('(') {
                depth += 1;
            } else if u.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    close = j;
                    break;
                }
            }
        }
        if close > open {
            regions.push((open + 1, close, method));
        }
    }
    regions
}

/// `true` when the receiver ending right before the `.` at `dot` looks
/// like a worker pool: an identifier whose name contains `pool`, or a
/// call chain rooted in `ScopedPool::…` (e.g. `ScopedPool::new(n)`).
fn pool_receiver(code: &[&Token], dot: usize) -> bool {
    if dot == 0 {
        return false;
    }
    let prev = code[dot - 1];
    if prev.kind == TokenKind::Ident {
        return prev.text.to_ascii_lowercase().contains("pool");
    }
    if prev.is_punct(')') {
        // Walk back to the matching `(` and inspect the tokens before
        // it for `ScopedPool :: name`.
        let mut depth = 0i32;
        let mut j = dot - 1;
        loop {
            let t = code[j];
            if t.is_punct(')') {
                depth += 1;
            } else if t.is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                return false;
            }
            j -= 1;
        }
        let lookback = j.saturating_sub(4);
        return code[lookback..j].iter().any(|t| t.is_word("ScopedPool"));
    }
    false
}

/// D008: shared mutable state captured inside a parallel closure. See
/// the module docs for the banned surface; `// det: shared-ok — <reason>`
/// escapes a deliberately order-free use.
fn d008_parallel_closure(
    path: &str,
    tokens: &[Token],
    class: &FileClass,
    facts: &LineFacts,
    out: &mut Vec<Finding>,
) {
    if !class.is_sim_crate() {
        return;
    }
    let code = code_tokens(tokens);
    let hash_names = collect_hash_names(&code);
    let mut report = |t: &Token, what: &str, method: &str| {
        if facts.shared_covers(t.line) {
            return;
        }
        out.push(Finding {
            path: path.to_string(),
            line: t.line,
            col: t.col,
            rule: "D008",
            message: format!(
                "{what} inside a closure passed to the parallel `{method}` seam \
                 in simulation crate `{}`; worker scheduling must stay \
                 unobservable for thread-width byte-identity — make the work \
                 per-item pure, or annotate a provably order-free use with \
                 `// det: shared-ok — <reason>`",
                class.crate_name,
            ),
        });
    };
    for (start, end, method) in pool_call_regions(&code) {
        let mut i = start;
        while i < end {
            let t = code[i];
            if t.kind == TokenKind::Ident {
                if D008_TYPES.contains(&t.text.as_str()) || t.text.starts_with("Atomic") {
                    report(t, &format!("shared-state type `{}`", t.text), method);
                } else if D008_METHODS.contains(&t.text.as_str())
                    && i >= 1
                    && code[i - 1].is_punct('.')
                    && i + 1 < end
                    && code[i + 1].is_punct('(')
                {
                    report(t, &format!("order-sensitive call `.{}()`", t.text), method);
                } else if hash_names.iter().any(|n| n == &t.text)
                    && i + 3 < end
                    && code[i + 1].is_punct('.')
                    && ITER_METHODS.contains(&code[i + 2].text.as_str())
                    && code[i + 3].is_punct('(')
                {
                    report(
                        code[i + 2],
                        &format!("unordered iteration of `HashMap`/`HashSet` value `{}`", t.text),
                        method,
                    );
                }
            } else if t.is_word("static") && i + 1 < end && code[i + 1].is_word("mut") {
                report(t, "`static mut`", method);
            }
            i += 1;
        }
    }
}

/// `true` when `code[i]` (an ident) is called: followed by `(` directly
/// or through one turbofish (`sum::<f64>(…)`).
fn is_called(code: &[&Token], i: usize) -> bool {
    if code.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return true;
    }
    if code.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && code.get(i + 3).is_some_and(|t| t.is_punct('<'))
    {
        let mut depth = 0i32;
        let mut j = i + 3;
        while j < code.len() {
            let t = code[j];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return code.get(j + 1).is_some_and(|t| t.is_punct('('));
                }
            } else if t.is_punct(';') || t.is_punct('{') {
                return false;
            }
            j += 1;
        }
    }
    false
}

/// D009: float-reduction ordering. Three detectors, all escaped by
/// `// det: reduce-ok — <reason>`:
///
/// 1. a reduction method (`sum`/`product`/`fold`) in a statement that
///    also mentions a `HashMap`/`HashSet` value earlier in the chain;
/// 2. a compound accumulation (`+=`/`-=`/`*=`/`/=`) inside a `for` loop
///    whose header iterates a `HashMap`/`HashSet` value;
/// 3. a compound accumulation inside a parallel closure whose target is
///    captured (not `let`-bound in the region, not a closure
///    parameter) — accumulation across the pool seam.
///
/// All three require floating-point evidence (see
/// [`collect_float_names`]): integer accumulation is exactly
/// associative and never reported.
fn d009_float_reduction(
    path: &str,
    tokens: &[Token],
    class: &FileClass,
    facts: &LineFacts,
    out: &mut Vec<Finding>,
) {
    if !class.is_sim_crate() {
        return;
    }
    let code = code_tokens(tokens);
    let hash_names = collect_hash_names(&code);
    let float_names = collect_float_names(&code);
    let is_float = |name: &str| float_names.iter().any(|n| n == name);
    let mut report = |t: &Token, what: &str, why: &str| {
        if facts.reduce_covers(t.line) {
            return;
        }
        out.push(Finding {
            path: path.to_string(),
            line: t.line,
            col: t.col,
            rule: "D009",
            message: format!(
                "{what} {why}; float addition is not associative, so the \
                 reduction order would leak into summarize95 and the sweep \
                 artifacts — reduce in canonical order (sorted keys, input \
                 order) or annotate with `// det: reduce-ok — <reason>`",
            ),
        });
    };

    // (1) reductions over a hash-container chain.
    if !hash_names.is_empty() {
        for (i, t) in code.iter().enumerate() {
            let reduces = t.kind == TokenKind::Ident
                && REDUCE_METHODS.contains(&t.text.as_str())
                && i >= 1
                && code[i - 1].is_punct('.')
                && is_called(&code, i);
            if !reduces {
                continue;
            }
            let start = statement_start(&code, i);
            let unordered = code[start..i]
                .iter()
                .any(|u| u.kind == TokenKind::Ident && hash_names.iter().any(|n| n == &u.text));
            // Only float reductions are order-sensitive: require float
            // evidence in the statement — a float-typed name before the
            // call, or an `f64`/`f32` turbofish just after it.
            let floaty = code[start..(i + 6).min(code.len())].iter().any(|u| {
                u.is_word("f64")
                    || u.is_word("f32")
                    || (u.kind == TokenKind::Ident && is_float(&u.text))
            });
            if unordered && floaty {
                report(
                    t,
                    &format!("reduction `.{}()`", t.text),
                    "over a `HashMap`/`HashSet` iteration",
                );
            }
        }
    }

    // (2) compound accumulation in `for` loops over hash containers.
    if !hash_names.is_empty() {
        let mut i = 0usize;
        while i < code.len() {
            if !code[i].is_word("for") {
                i += 1;
                continue;
            }
            // Header: `for <pat> in <expr> {`.
            let mut j = i + 1;
            let mut saw_in = None;
            while j < code.len() && !code[j].is_punct('{') && !code[j].is_punct(';') {
                if code[j].is_word("in") && saw_in.is_none() {
                    saw_in = Some(j);
                }
                j += 1;
            }
            let (Some(in_idx), true) = (saw_in, j < code.len() && code[j].is_punct('{')) else {
                i += 1;
                continue;
            };
            let over_hash = code[in_idx..j]
                .iter()
                .any(|u| u.kind == TokenKind::Ident && hash_names.iter().any(|n| n == &u.text));
            if !over_hash {
                i = j + 1;
                continue;
            }
            // Body: matching braces from `j`.
            let mut depth = 0i32;
            let mut k = j;
            let mut close = j;
            while k < code.len() {
                if code[k].is_punct('{') {
                    depth += 1;
                } else if code[k].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
                k += 1;
            }
            for a in compound_assigns(&code, j + 1, close) {
                // Integer counters are exactly associative; only flag
                // accumulators with float evidence.
                let target_is_float = a > 0
                    && code[a - 1].kind == TokenKind::Ident
                    && is_float(&code[a - 1].text);
                if target_is_float {
                    report(
                        code[a],
                        "compound accumulation",
                        "inside a `for` loop over a `HashMap`/`HashSet`",
                    );
                }
            }
            i = j + 1;
        }
    }

    // (3) captured accumulators across the pool seam.
    for (start, end, method) in pool_call_regions(&code) {
        // Closure parameters: the idents between the first `|` pair.
        let mut params: Vec<&str> = Vec::new();
        if let Some(p0) = (start..end).find(|&k| code[k].is_punct('|')) {
            if let Some(p1) = (p0 + 1..end).find(|&k| code[k].is_punct('|')) {
                params = code[p0 + 1..p1]
                    .iter()
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.as_str())
                    .collect();
            }
        }
        for a in compound_assigns(&code, start, end) {
            let Some(target) = (a > start)
                .then(|| code[a - 1])
                .filter(|t| t.kind == TokenKind::Ident)
            else {
                continue;
            };
            let local = params.iter().any(|p| *p == target.text)
                || (start..a).any(|k| {
                    code[k].is_word("let")
                        && code[k + 1..a.min(k + 3)]
                            .iter()
                            .any(|t| t.kind == TokenKind::Ident && t.text == target.text)
                });
            if !local && is_float(&target.text) {
                report(
                    target,
                    &format!("captured accumulation `{} {}=`", target.text, code[a].text),
                    &format!("across the parallel `{method}` seam"),
                );
            }
        }
    }
}

/// Indices of compound-assign operators (`+=` `-=` `*=` `/=`) in
/// `code[start..end)`, pointing at the operator's first token.
fn compound_assigns(code: &[&Token], start: usize, end: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let end = end.min(code.len());
    let mut i = start;
    while i + 1 < end {
        let op = &code[i];
        let is_op = op.is_punct('+') || op.is_punct('-') || op.is_punct('*') || op.is_punct('/');
        if is_op && code[i + 1].is_punct('=') {
            // Exclude `==`-family by construction (first token differs)
            // and `->`/`=>` (second token differs). `a + = b` is not
            // valid Rust, so adjacency in the code stream is enough.
            out.push(i);
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

fn h001_ignore_reason(path: &str, tokens: &[Token], out: &mut Vec<Finding>) {
    let code = code_tokens(tokens);
    for (i, w) in code.windows(3).enumerate() {
        if w[0].is_punct('#') && w[1].is_punct('[') && w[2].is_word("ignore") {
            let reasoned = code.get(i + 3).is_some_and(|t| t.is_punct('='))
                && code.get(i + 4).is_some_and(|t| {
                    t.kind == TokenKind::Str && !t.text.trim().is_empty()
                });
            if !reasoned {
                out.push(Finding {
                    path: path.to_string(),
                    line: w[2].line,
                    col: w[2].col,
                    rule: "H001",
                    message: "`#[ignore]` without a reason string; use \
                              `#[ignore = \"why\"]` so skipped tests stay accounted for"
                        .to_string(),
                });
            }
        }
    }
}

fn h002_missing_docs(
    path: &str,
    tokens: &[Token],
    class: &FileClass,
    facts: &LineFacts,
    out: &mut Vec<Finding>,
) {
    if !class.is_crate_root {
        return;
    }
    if has_inner_attr(tokens, "deny", "missing_docs") || facts.docs_covers(1) {
        return;
    }
    out.push(Finding {
        path: path.to_string(),
        line: 1,
        col: 1,
        rule: "H002",
        message: "crate root is missing `#![deny(missing_docs)]` (document an \
                  exemption with `// lint: allow missing_docs — <reason>` on line 1)"
            .to_string(),
    });
}

/// Rule ids in report order, for `--explain`-style listings, SARIF
/// metadata and tests.
pub const RULES: &[(&str, &str)] = &[
    ("D001", "no wall-clock time sources outside bench/testkit/lint"),
    ("D002", "no unordered HashMap/HashSet iteration in simulation crates"),
    ("D003", "no environment-seeded hashing or external RNGs"),
    ("D004", "forbid(unsafe_code) at every crate root; no unsafe anywhere"),
    ("D005", "no println!-family output from simulation library code"),
    ("D007", "no allocation reachable from the steady-state entry points"),
    ("D008", "no shared state captured inside parallel pool closures"),
    ("D009", "no float reduction over unordered sources or across pool seams"),
    ("H001", "no #[ignore] without a reason string"),
    ("H002", "deny(missing_docs) at every crate root"),
];

/// `SIM_CRATES` re-exported for doc/tests convenience.
pub fn sim_crates() -> &'static [&'static str] {
    SIM_CRATES
}
