//! Scratch directories for the CLI integration tests.

use std::fs;
use std::ops::Deref;
use std::path::{Path, PathBuf};

/// One test's scratch directory under the system temp directory, named
/// `pi3d-<test binary>-tests-<pid>-<test>` so that concurrent tests and
/// two checkouts tested on one host never share a file. Dropping it
/// removes the directory, unless the test is panicking: a failed test
/// leaves its files to inspect.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(test: &str) -> Scratch {
        let name = format!(
            "pi3d-{}-tests-{}-{test}",
            env!("CARGO_CRATE_NAME"),
            std::process::id()
        );
        let dir = std::env::temp_dir().join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = fs::remove_dir_all(&self.0);
        }
    }
}
