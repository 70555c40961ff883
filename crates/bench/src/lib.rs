//! Shared experiment plumbing for the `experiments` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;

/// Writes `content` under `results/<name>`, creating directories as needed.
pub fn write_result(dir: &Path, name: &str, content: &str) -> std::io::Result<()> {
    let path = dir.join(name);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, content)
}
