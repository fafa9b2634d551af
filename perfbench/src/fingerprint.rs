//! The machine and source fingerprint printed beside every result.

use std::fs;
use std::path::Path;
use std::process::Command;

/// Where and on what a run was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu: String,
    /// Commit of the checkout, when it is a git work tree.
    pub git_rev: String,
}

impl Fingerprint {
    /// Probes the machine; `root` is the checkout the benchmark runs in.
    pub fn probe(root: &Path) -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: rustc_version(),
            cpu: cpu_model(),
            git_rev: git_rev(root).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One JSON object: the fingerprint plus the run's own `extra`
    /// fields (already-rendered JSON values).
    pub fn to_json(&self, extra: &[(&str, String)]) -> String {
        let mut fields = vec![
            format!("\"nproc\": {}", self.nproc),
            format!("\"rustc\": \"{}\"", escape(&self.rustc)),
            format!("\"cpu\": \"{}\"", escape(&self.cpu)),
            format!("\"git_rev\": \"{}\"", escape(&self.git_rev)),
        ];
        fields.extend(extra.iter().map(|(k, v)| format!("\"{k}\": {v}")));
        format!("{{{}}}", fields.join(", "))
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolves `.git/HEAD` of `root` by reading the files directly, so the
/// probe never looks outside the checkout.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
