//! Every document committed under `specs/` loads as its kind and is
//! runnable: experiment and executive specs validate, sweep grids expand
//! into valid points. The ablation grids under `specs/ablation/` keep
//! their point counts and one shared seed per file, so the schemes a
//! grid compares face the same fault stream.

use eacp_spec::{ExecutiveSpec, ExecutiveSweepSpec, ExperimentSpec, SweepSpec};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, Debug)]
enum Kind {
    Experiment,
    Executive,
    Sweep,
    ExecutiveSweep,
}

/// Every committed document with its kind and, for grids, its point count.
const DOCUMENTS: &[(&str, Kind, usize)] = &[
    ("avionics-trio.json", Kind::Executive, 1),
    ("avionics-trio-sweep.json", Kind::ExecutiveSweep, 6),
    ("k-fault-feasibility-sweep.json", Kind::Executive, 1),
    ("satellite-telemetry.json", Kind::Experiment, 1),
    ("table1-anchor.json", Kind::Experiment, 1),
    ("table1a-sweep.json", Kind::Sweep, 8),
    ("ablation/lambda-a_d.json", Kind::Sweep, 8),
    ("ablation/lambda-a_d_c.json", Kind::Sweep, 8),
    ("ablation/lambda-a_d_s.json", Kind::Sweep, 8),
    ("ablation/no-dvs-a_s-l0.0014.json", Kind::Sweep, 3),
    ("ablation/no-dvs-a_s-l0.002.json", Kind::Sweep, 1),
    ("ablation/no-dvs-cscp-l0.0014.json", Kind::Sweep, 3),
    ("ablation/no-dvs-cscp-l0.002.json", Kind::Sweep, 1),
    ("ablation/no-dvs-kft-l0.0014.json", Kind::Sweep, 3),
    ("ablation/no-dvs-kft-l0.002.json", Kind::Sweep, 1),
    ("ablation/no-dvs-poisson-l0.0014.json", Kind::Sweep, 3),
    ("ablation/no-dvs-poisson-l0.002.json", Kind::Sweep, 1),
    (
        "ablation/optimizer-a_d_s-exact-recursion.json",
        Kind::Sweep,
        3,
    ),
    (
        "ablation/optimizer-a_d_s-paper-closed-form.json",
        Kind::Sweep,
        3,
    ),
    ("ablation/store-compare-ratio-a_d_c.json", Kind::Sweep, 9),
    ("ablation/store-compare-ratio-a_d_s.json", Kind::Sweep, 9),
];

fn specs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

/// The `.json` files under `dir`, as paths relative to `root`.
fn json_files(root: &Path, dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            json_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "json") {
            let rel = path.strip_prefix(root).unwrap();
            out.insert(rel.to_str().unwrap().replace('\\', "/"));
        }
    }
}

#[test]
fn every_committed_document_is_listed() {
    let root = specs_dir();
    let mut on_disk = BTreeSet::new();
    json_files(&root, &root, &mut on_disk);
    let listed: BTreeSet<String> = DOCUMENTS.iter().map(|(f, ..)| f.to_string()).collect();
    assert_eq!(on_disk, listed, "specs/ and DOCUMENTS disagree");
}

#[test]
fn every_committed_document_loads_as_its_kind() {
    let root = specs_dir();
    for &(file, kind, points) in DOCUMENTS {
        let path = root.join(file);
        let count = match kind {
            Kind::Experiment => {
                ExperimentSpec::load(&path).unwrap().validate().unwrap();
                1
            }
            Kind::Executive => {
                ExecutiveSpec::load(&path).unwrap().validate().unwrap();
                1
            }
            Kind::Sweep => {
                let grid = SweepSpec::load(&path).unwrap().expand().unwrap();
                for point in &grid {
                    point.validate().unwrap_or_else(|e| panic!("{file}: {e}"));
                }
                if file.starts_with("ablation/") {
                    let seeds: BTreeSet<u64> = grid.iter().map(|p| p.mc.seed).collect();
                    assert_eq!(seeds.len(), 1, "{file}: seeds {seeds:?}");
                }
                grid.len()
            }
            // Expansion validates every executive point.
            Kind::ExecutiveSweep => ExecutiveSweepSpec::load(&path)
                .unwrap()
                .expand()
                .unwrap()
                .len(),
        };
        assert_eq!(count, points, "{file} ({kind:?})");
    }
}
