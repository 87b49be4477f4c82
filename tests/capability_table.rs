//! ARCHITECTURE.md's "Scheme capability table" against the schemes
//! themselves: every scheme has a row, the row names a file that exists
//! under `crates/core/src/schemes/`, and its robust and signals columns
//! agree with `Smr::ROBUST` and `Smr::NEEDS_SIGNALS`. Moving a scheme (or
//! changing either constant) without updating the table fails here.

use std::path::Path;

use pop::smr::{
    Ebr, EpochPop, HazardEra, HazardEraPop, HazardPtr, HazardPtrAsym, HazardPtrPop, Hyaline, Ibr,
    NbrPlus, NoReclaim, Smr, Vbr,
};

/// The table's rows, each split into trimmed cells.
fn rows() -> Vec<Vec<String>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("ARCHITECTURE.md")).unwrap();
    let section = doc
        .split("## Scheme capability table")
        .nth(1)
        .expect("ARCHITECTURE.md has a \"Scheme capability table\" section");
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect()
}

fn check<S: Smr>(rows: &[Vec<String>]) {
    let row = rows
        .iter()
        .find(|r| r[0] == S::NAME)
        .unwrap_or_else(|| panic!("no capability-table row for {}", S::NAME));
    let file = row[1].split('`').nth(1).unwrap_or_default();
    let schemes = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/schemes");
    assert!(
        !file.is_empty() && schemes.join(file).is_file(),
        "{}: file column {:?} names no file under crates/core/src/schemes/",
        S::NAME,
        row[1]
    );
    assert_eq!(
        row[2].starts_with("yes"),
        S::ROBUST,
        "{}: robust column {:?}",
        S::NAME,
        row[2]
    );
    assert_eq!(
        !row[6].starts_with("no"),
        S::NEEDS_SIGNALS,
        "{}: signals column {:?}",
        S::NAME,
        row[6]
    );
}

#[test]
fn capability_table_matches_the_schemes() {
    let rows = rows();
    check::<HazardPtr>(&rows);
    check::<HazardPtrAsym>(&rows);
    check::<HazardPtrPop>(&rows);
    check::<HazardEra>(&rows);
    check::<HazardEraPop>(&rows);
    check::<Ebr>(&rows);
    check::<EpochPop>(&rows);
    check::<Ibr>(&rows);
    check::<NbrPlus>(&rows);
    check::<Hyaline>(&rows);
    check::<Vbr>(&rows);
    check::<NoReclaim>(&rows);
    assert_eq!(rows.len(), 12, "one row per scheme");
}
