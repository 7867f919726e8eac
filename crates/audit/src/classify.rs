//! Maps workspace-relative paths to the rule sets that apply to them.
//!
//! The scope contract (documented in the README's "Invariants & audit"
//! section):
//!
//! * **Crate roots** (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs` of every
//!   workspace member, including the vendored shims) are checked for R2.
//! * **Library sources** (everything under a member's `src/` except binary
//!   entry points) are checked for R4. Binaries may panic at the top
//!   level; libraries must propagate.
//! * **Determinism-critical crates** — the simulation/execution stack —
//!   are additionally checked for R1.
//! * **Hot modules** — the per-replication code paths — are additionally
//!   checked for R3.
//! * `vendor/` shims are third-party stand-ins: R2 only.
//! * `tests/`, `benches/`, `examples/` are out of scope for v1 (tests are
//!   expected to unwrap; they are exercised by the engine's own fixtures
//!   instead).

/// Crates whose sources must stay deterministic (R1): anything that runs
/// inside a replication or computes results that reports compare
/// bit-for-bit. The result store qualifies because a cache hit must be
/// byte-identical to recomputation — filesystem and clock access are
/// confined to its backend behind `audit:allow` notes.
pub const DETERMINISM_CRATES: &[&str] = &[
    "dmr-sim",
    "fault-model",
    "core",
    "rt-sched",
    "energy-model",
    "numerics",
    "exec",
    "store",
];

/// Modules on the per-replication hot path (R3): allocation here must be
/// pooled in setup functions, never per replication.
pub const HOT_MODULES: &[&str] = &[
    "crates/dmr-sim/src/engine.rs",
    "crates/exec/src/runner.rs",
    "crates/exec/src/job.rs",
    "crates/exec/src/workload.rs",
    "crates/exec/src/executive_mc.rs",
    "crates/rt-sched/src/executive.rs",
    "crates/fault-model/src/lib.rs",
    "crates/fault-model/src/sampling.rs",
    "crates/core/src/policies/plan_cache.rs",
];

/// Which rule families apply to one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// R2: must carry `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
    /// R4: non-test panic policy.
    pub library: bool,
    /// R1: determinism policy.
    pub determinism: bool,
    /// R3: hot-path allocation policy.
    pub hot: bool,
}

/// Classifies a workspace-relative path (unix separators). `None` means
/// the file is out of audit scope.
pub fn classify(rel: &str) -> Option<FileClass> {
    if !rel.ends_with(".rs") {
        return None;
    }
    // Generated/build output and fixture corpora are never audited.
    if rel.starts_with("target/") || rel.contains("/fixtures/") {
        return None;
    }
    if rel.starts_with("vendor/") {
        // Vendored shims stand in for third-party crates: only the
        // unsafe-hygiene rule applies, and only to their roots.
        return rel.ends_with("/src/lib.rs").then_some(FileClass {
            crate_root: true,
            library: false,
            determinism: false,
            hot: false,
        });
    }

    let in_src = |prefix: &str| {
        rel.strip_prefix(prefix)
            .and_then(|r| r.strip_prefix("src/"))
            .is_some_and(|r| !r.is_empty())
    };

    // The workspace facade crate at the repo root.
    if in_src("") && !rel.starts_with("crates/") {
        let root = rel == "src/lib.rs" || rel == "src/main.rs" || rel.starts_with("src/bin/");
        let bin = rel == "src/main.rs" || rel.starts_with("src/bin/");
        return Some(FileClass {
            crate_root: root,
            library: !bin,
            determinism: false,
            hot: false,
        });
    }

    let member = rel.strip_prefix("crates/")?;
    let (name, inside) = member.split_once("/src/")?;
    if inside.is_empty() {
        return None;
    }
    let bin = inside == "main.rs" || inside.starts_with("bin/");
    Some(FileClass {
        crate_root: inside == "lib.rs" || bin,
        library: !bin,
        determinism: DETERMINISM_CRATES.contains(&name),
        hot: HOT_MODULES.contains(&rel),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_contract() {
        // Hot modules in determinism crates — including the executive
        // replication path (workload seam, executive Monte-Carlo, and the
        // rt-sched executive engine it drives).
        for hot in [
            "crates/dmr-sim/src/engine.rs",
            "crates/exec/src/workload.rs",
            "crates/exec/src/executive_mc.rs",
            "crates/rt-sched/src/executive.rs",
            "crates/fault-model/src/sampling.rs",
            "crates/core/src/policies/plan_cache.rs",
        ] {
            let c = classify(hot);
            assert_eq!(
                c,
                Some(FileClass {
                    crate_root: false,
                    library: true,
                    determinism: true,
                    hot: true,
                }),
                "{hot}"
            );
        }
        // The fault processes are drawn inside every replication, so the
        // fault-model crate root is hot as well as a crate root.
        assert_eq!(
            classify("crates/fault-model/src/lib.rs"),
            Some(FileClass {
                crate_root: true,
                library: true,
                determinism: true,
                hot: true,
            })
        );
        // Binary entry points: R2 but not R4.
        let c = classify("crates/cli/src/main.rs");
        assert_eq!(
            c,
            Some(FileClass {
                crate_root: true,
                library: false,
                determinism: false,
                hot: false,
            })
        );
        assert!(classify("crates/experiments/src/bin/sweep.rs").is_some_and(|c| !c.library));
        // The remote transport lives in a determinism crate (a fleet run
        // must be bit-identical to a local one) but is not a hot module:
        // it allocates per request, never per replication.
        assert_eq!(
            classify("crates/exec/src/remote.rs"),
            Some(FileClass {
                crate_root: false,
                library: true,
                determinism: true,
                hot: false,
            })
        );
        // The result store is determinism-scoped: a cache hit must be
        // byte-identical to recomputation.
        assert!(classify("crates/store/src/fs.rs").is_some_and(|c| c.determinism && c.library));
        assert!(classify("crates/store/src/lib.rs").is_some_and(|c| c.determinism && c.crate_root));
        // Vendored shims: R2 on the root only.
        assert_eq!(
            classify("vendor/rand/src/lib.rs"),
            Some(FileClass {
                crate_root: true,
                library: false,
                determinism: false,
                hot: false,
            })
        );
        assert_eq!(classify("vendor/rand/src/other.rs"), None);
        // Facade crate root.
        assert!(classify("src/lib.rs").is_some_and(|c| c.crate_root && c.library));
        // Out of scope.
        assert_eq!(classify("crates/exec/tests/golden_identity.rs"), None);
        assert_eq!(classify("crates/audit/tests/fixtures/r4.rs"), None);
        assert_eq!(classify("README.md"), None);
        assert_eq!(classify("target/debug/build/foo.rs"), None);
    }
}
