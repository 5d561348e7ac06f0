//! Helpers shared by the integration-test crates (`mod common;`).

/// Compare `text` against the fixture `tests/golden/<name>`; with
/// `DLFS_UPDATE_GOLDEN=1` (re)write it instead. Fixtures pin behaviour
/// across refactors: never regenerate one to make a refactor pass.
pub fn check_golden(name: &str, text: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("DLFS_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("fixture {name} missing; run with DLFS_UPDATE_GOLDEN=1"));
    assert_eq!(text, want, "output diverged from the golden {name}");
}
