//! Helpers shared by the integration-test crates (`mod common;`); each
//! crate uses a subset.
#![allow(dead_code)]

use std::sync::Arc;

use blocksim::{DeviceConfig, NvmeDevice};
use simkit::Dur;

/// An emulated ramdisk of `bytes` bytes, 10 µs per command.
pub fn ramdisk(bytes: u64) -> Arc<NvmeDevice> {
    NvmeDevice::new(DeviceConfig::emulated_ramdisk(bytes, Dur::micros(10)))
}

/// A local 256 MiB Optane device.
pub fn local_device() -> Arc<NvmeDevice> {
    NvmeDevice::new(DeviceConfig::optane(256 << 20))
}

/// Base seed plus the CI sweep offset (`DLFS_TEST_SEED_OFFSET`), so a
/// randomized suite re-runs under a second seed without code changes.
pub fn test_seed(base: u64) -> u64 {
    base + std::env::var("DLFS_TEST_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
}

fn golden(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `text` against the fixture `tests/golden/<name>`; with
/// `DLFS_UPDATE_GOLDEN=1` (re)write it instead. Fixtures pin behaviour
/// across refactors: never regenerate one to make a refactor pass.
pub fn check_golden(name: &str, text: &str) {
    let path = golden(name);
    if std::env::var("DLFS_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("fixture {name} missing; run with DLFS_UPDATE_GOLDEN=1"));
    assert_golden(&format!("the golden {name}"), &want, text);
}

/// [`check_golden`] for a fixture that several test crates share: the file
/// is a sequence of parts, each opened by a `## part <part>` line, and this
/// compares (or, with `DLFS_UPDATE_GOLDEN=1`, replaces) only `part`.
pub fn check_golden_part(name: &str, part: &str, text: &str) {
    let path = golden(name);
    let file = std::fs::read_to_string(&path).unwrap_or_default();
    let mut parts: std::collections::BTreeMap<&str, &str> = file
        .split("## part ")
        .filter_map(|p| p.split_once('\n'))
        .collect();
    if std::env::var("DLFS_UPDATE_GOLDEN").is_ok() {
        parts.insert(part, text);
        let whole: String = parts
            .iter()
            .map(|(p, t)| format!("## part {p}\n{t}"))
            .collect();
        std::fs::write(&path, whole).unwrap();
        return;
    }
    let want = parts.get(part).unwrap_or_else(|| {
        panic!("fixture {name} lacks part {part}; run with DLFS_UPDATE_GOLDEN=1")
    });
    assert_golden(&format!("part {part} of the golden {name}"), want, text);
}

/// Fail unless `text` is `want`, the fixture `what`: name the first line
/// that differs, with the expected and the actual line, and how many lines
/// differ — not the whole fixture.
fn assert_golden(what: &str, want: &str, text: &str) {
    if text == want {
        return;
    }
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), text.lines().collect());
    let differ: Vec<usize> = (0..want.len().max(got.len()))
        .filter(|&i| want.get(i) != got.get(i))
        .collect();
    let Some(&first) = differ.first() else {
        panic!("output diverged from {what} in its line endings only");
    };
    let line = |lines: &[&str]| {
        lines
            .get(first)
            .map_or("<none>".into(), |l| format!("{l:?}"))
    };
    panic!(
        "output diverged from {what}: {} of {} lines differ, the first is line {}\n  \
         expected: {}\n  actual:   {}",
        differ.len(),
        want.len(),
        first + 1,
        line(&want),
        line(&got),
    );
}
