//! The correctness gate: every engine row must exist, equal the serial
//! replica's row byte for byte, and — at the default workload seed — hash
//! to the digest recorded in `reference/<workload>.digests`.

use crate::grids::Workload;
use crate::{package_dir, Args, DEFAULT_SEED};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// FNV-1a, 64-bit: a stable digest with no dependency.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn lines(jsonl: &[u8]) -> Vec<&[u8]> {
    jsonl.split_inclusive(|&b| b == b'\n').collect()
}

/// Counts failed rows across every engine run checked.
pub struct Checker {
    cells: usize,
    expected: Vec<u8>,
    reference: Option<Vec<u64>>,
    pub attempted: usize,
    pub failed: usize,
}

impl Checker {
    /// A gate over `expected`, the replica's rows.  The reference digests
    /// are loaded only at the default seed.
    pub fn new(args: &Args, cells: usize, expected: Vec<u8>) -> Result<Checker, String> {
        let reference = if args.seed == DEFAULT_SEED {
            let path = reference_path(args.workload);
            Some(read_reference(&path).map_err(|e| format!("{}: {e}", path.display()))?)
        } else {
            None
        };
        Ok(Checker {
            cells,
            expected,
            reference,
            attempted: 0,
            failed: 0,
        })
    }

    /// Checks one engine run's rows; `completed` is false when the engine
    /// returned an error, which fails every cell.
    pub fn check(&mut self, jsonl: &[u8], completed: bool) {
        self.attempted += self.cells;
        let got = lines(jsonl);
        let want = lines(&self.expected);
        if !completed || got.len() > self.cells {
            self.failed += self.cells;
            return;
        }
        self.failed += (0..self.cells)
            .filter(|&i| {
                let Some(row) = got.get(i) else { return true };
                let recorded = self
                    .reference
                    .as_ref()
                    .is_none_or(|digests| digests.get(i) == Some(&fnv1a(FNV_OFFSET, row)));
                want.get(i) != Some(row) || !recorded
            })
            .count();
    }
}

pub fn reference_path(workload: Workload) -> PathBuf {
    package_dir()
        .join("reference")
        .join(format!("{}.digests", workload.name()))
}

fn read_reference(path: &Path) -> io::Result<Vec<u64>> {
    fs::read_to_string(path)?
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            u64::from_str_radix(line.trim(), 16)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{line:?}: {e}")))
        })
        .collect()
}

pub fn write_reference(path: &Path, workload: Workload, jsonl: &[u8]) -> io::Result<()> {
    let mut text = format!(
        "# FNV-1a 64 of each JSONL row (newline included), workload {} at seed {DEFAULT_SEED}\n",
        workload.name()
    );
    for row in lines(jsonl) {
        text.push_str(&format!("{:016x}\n", fnv1a(FNV_OFFSET, row)));
    }
    fs::write(path, text)
}

/// A digest of the sources the benchmark builds (`crates/`, `vendor/`, the
/// root manifest and lock file, and this package), printed with each
/// result so a number can be tied to code even outside a git work tree.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(file));
    }
    files.sort();
    files.iter().fold(FNV_OFFSET, |hash, file| {
        let name = file.strip_prefix(root).unwrap_or(file);
        let hash = fnv1a(hash, name.to_string_lossy().as_bytes());
        fnv1a(hash, &fs::read(file).unwrap_or_default())
    })
}

fn collect_files(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if entry.file_name() != "target" {
                collect_files(&path, files);
            }
        } else {
            files.push(path);
        }
    }
}
