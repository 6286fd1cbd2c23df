//! What the integration suites share: the one temp-root helper.
//!
//! Every store a suite builds on disk lives under one staging directory,
//! `$TMPDIR/zerber-test`, in a [`TempRoot`] of its own.  The store crate
//! invents no directory, so this is the only place tests put files, and the
//! hygiene guard in `scripts/verify.sh` (and CI) checks that nothing is left
//! under it once the suites finish.

use std::ffi::OsStr;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory `$TMPDIR/zerber-test/<pid>-<name>-<n>`, removed
/// with everything in it on drop.  Declare it before the store it holds, so
/// it outlives the store.
pub struct TempRoot(PathBuf);

impl TempRoot {
    pub fn new(name: &str) -> TempRoot {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join("zerber-test").join(format!(
            "{}-{name}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp root is creatable");
        TempRoot(dir)
    }
}

impl Deref for TempRoot {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

/// So `&root` passes wherever a store takes `impl Into<PathBuf>`.
impl AsRef<OsStr> for TempRoot {
    fn as_ref(&self) -> &OsStr {
        self.0.as_os_str()
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
