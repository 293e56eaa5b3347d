//! Checks shared by the scrape tests.

use std::collections::{BTreeMap, BTreeSet};

/// Panic unless `text` is a well-formed Prometheus text exposition:
/// every family has exactly one `# HELP` and one `# TYPE` line, every
/// sample belongs to a typed family, and no sample repeats a name and
/// label set.
pub fn assert_exposition_is_well_formed(text: &str) {
    let mut help = BTreeMap::<&str, usize>::new();
    let mut types = BTreeMap::<&str, &str>::new();
    let mut samples = BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let family = rest.split(' ').next().unwrap_or_default();
            *help.entry(family).or_default() += 1;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, kind) = rest.split_once(' ').expect("TYPE line names a type");
            assert!(
                types.insert(family, kind).is_none(),
                "second TYPE line for {family}"
            );
        } else {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            value
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("bad sample value: {line}"));
            let name = series.split('{').next().unwrap_or_default();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .filter_map(|suffix| name.strip_suffix(suffix))
                .find(|base| types.get(base) == Some(&"histogram"))
                .unwrap_or(name);
            assert!(types.contains_key(family), "sample without a TYPE: {line}");
            assert!(samples.insert(series), "repeated series: {series}");
        }
    }
    for family in types.keys() {
        assert_eq!(help.get(family), Some(&1), "HELP lines of {family}");
    }
    assert_eq!(help.len(), types.len(), "HELP without TYPE");
}
