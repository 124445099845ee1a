//! The one way clockmark replaces a whole file: [`replace_file`].

use crate::error::CorpusError;
use std::fs::{self, File};
use std::path::Path;

/// Replaces the file at `path` with whatever `write` streams into the
/// handle it is given.
///
/// Manifests, trace files and every file a campaign directory holds
/// (specs, checkpoints, reports, live progress) land through here: the
/// new contents stream into a hidden sibling temp file, which is then
/// renamed over `path`. A reader therefore sees either the old or the
/// new file, never a torn one, and a process killed mid-write leaves the
/// old file in place. Nothing is fsynced: the guarantee covers a process
/// kill, not power loss.
///
/// # Errors
///
/// Returns [`CorpusError::Io`] when the temp file cannot be created or
/// renamed, and whatever `write` returns; on either the file at `path`
/// is left untouched.
pub fn replace_file(
    path: &Path,
    write: impl FnOnce(&mut File) -> Result<(), CorpusError>,
) -> Result<(), CorpusError> {
    // `dir/.name.tmp`: hidden, and never mistaken for a trace or a log.
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!(".{name}.tmp"));
    let mut file = File::create(&tmp)
        .map_err(|e| CorpusError::io(format!("creating {}", tmp.display()), e))?;
    write(&mut file)?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| {
        CorpusError::io(
            format!("renaming {} over {}", tmp.display(), path.display()),
            e,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn a_failed_write_leaves_the_old_file_in_place() {
        let dir = std::env::temp_dir().join(format!("cm_replace_{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("report.json");
        let put = |bytes: &'static [u8]| {
            replace_file(&path, |file| {
                file.write_all(bytes)
                    .map_err(|e| CorpusError::io("writing", e))
            })
        };
        put(b"old\n").expect("writes");
        put(b"new\n").expect("replaces");
        assert_eq!(fs::read(&path).expect("reads"), b"new\n");
        assert!(!dir.join(".report.json.tmp").exists(), "renamed away");
        let err = replace_file(&path, |_| Err(CorpusError::format("refused")));
        assert!(err.is_err());
        assert_eq!(fs::read(&path).expect("reads"), b"new\n");
        fs::remove_dir_all(&dir).ok();
    }
}
