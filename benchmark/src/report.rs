//! `run`: every workload, a timed pass then a traced pass, one child
//! process per workload per pass; the summary on standard output and
//! the result set on disk.
//!
//! Only a full run (every workload, not `--quick`) writes under
//! `benchmark/results/`, which is committed; `--quick` and
//! `--workload W` runs write under `benchmark/out/`, which is ignored.

use crate::metrics::{Report, END_TO_END, PER_LAYER, USER_VISIBLE, WORKLOADS};
use crate::Args;
use std::path::{Path, PathBuf};
use std::process::Command;
use toss_json::Value;

/// Everything one pass recorded, for the parent `run` to collect.
pub fn pass_detail(r: &Report) -> Value {
    Value::object(vec![
        ("correct", r.correct().into()),
        ("attempted", Value::Int(r.attempted as i64)),
        ("failed", Value::Int(r.failed as i64)),
        ("metrics", r.detail()),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount `dir` lives on, from the mount table.
fn filesystem_type(dir: &Path, mountinfo: &str) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    mountinfo
        .lines()
        .filter_map(|line| {
            // "<id> <parent> <dev> <root> <mount point> <opts> … - <fstype> <source> …"
            let mount_point = line.split(' ').nth(4)?;
            let fstype = line.split(" - ").nth(1)?.split(' ').next()?;
            dir.starts_with(mount_point)
                .then_some((mount_point.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, fstype)| fstype.to_string())
}

/// Where and on what a result set was measured.
fn stamp(out_dir: &Path) -> Value {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".into(), |s| s.trim().to_string());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    Value::object(vec![
        (
            "git_sha",
            command_line("git", &["-C", manifest_dir, "rev-parse", "HEAD"]).into(),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
        ("cpu", cpu.into()),
        ("rustc", command_line("rustc", &["--version"]).into()),
        ("kernel", read("/proc/sys/kernel/osrelease").trim().into()),
        (
            "out_dir_fs",
            filesystem_type(out_dir, &read("/proc/self/mountinfo")).into(),
        ),
        ("fsync", "real fsync (StdVfs), default WriteConfig".into()),
    ])
}

fn first_unused(dir: &Path, stem: &str) -> PathBuf {
    (1..)
        .map(|n| dir.join(format!("{stem}-{n}.json")))
        .find(|p| !p.exists())
        .expect("some index is unused")
}

fn print_family(workload: &str, pass: &Value, names: &[&str]) {
    for name in names {
        let Some(m) = pass.get("metrics").and_then(|ms| ms.get(name)) else {
            continue;
        };
        println!(
            "{workload} {name} {} {} n={}",
            m.get("value").and_then(Value::as_f64).unwrap_or(0.0),
            m.get("unit").and_then(Value::as_str).unwrap_or(""),
            m.get("n").and_then(Value::as_i64).unwrap_or(0),
        );
    }
}

pub fn run_all(args: &Args) -> Result<i32, String> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(42);
    let quick = args.flag("--quick");
    let seconds: f64 = args
        .parsed("--seconds")?
        .unwrap_or(if quick { 1.0 } else { 15.0 });
    let workloads: Vec<&str> = match args.value("--workload") {
        Some(w) => vec![*WORKLOADS
            .iter()
            .find(|k| **k == w)
            .ok_or_else(|| format!("unknown workload `{w}`"))?],
        None => WORKLOADS.to_vec(),
    };
    let full = !quick && workloads.len() == WORKLOADS.len();
    let out_dir = crate::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let mut all_ok = true;
    let mut sets: Vec<(String, Value)> = Vec::new();
    for w in &workloads {
        let mut passes: Vec<(String, Value)> = Vec::new();
        for (pass, trace) in [("timed", "0"), ("traced", "1")] {
            let detail = out_dir.join(format!("{w}-{pass}.json"));
            std::fs::remove_file(&detail).ok();
            eprintln!("== {w}: {pass} pass, seed {seed}, {seconds} s");
            let status = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .arg("--detail")
                .arg(&detail)
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("cannot start the {w} {pass} pass: {e}"))?;
            let recorded = std::fs::read_to_string(&detail)
                .ok()
                .and_then(|text| Value::parse(&text).ok());
            all_ok &= status.success() && recorded.is_some();
            passes.push((pass.to_string(), recorded.unwrap_or(Value::Null)));
        }
        sets.push((w.to_string(), Value::Object(passes)));
    }

    // end-to-end numbers come from the timed pass, layers from the traced one
    let user_visible: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER[..USER_VISIBLE])
        .map(|d| d.name)
        .collect();
    let layers: Vec<&str> = PER_LAYER[USER_VISIBLE..].iter().map(|d| d.name).collect();
    for (w, passes) in &sets {
        println!("# {w}: end to end (timed pass)");
        print_family(
            w,
            passes.get("timed").unwrap_or(&Value::Null),
            &user_visible,
        );
        println!("# {w}: per layer (traced pass)");
        print_family(w, passes.get("traced").unwrap_or(&Value::Null), &layers);
        for pass in ["timed", "traced"] {
            let p = passes.get(pass);
            let ok = p.and_then(|p| p.get("correct")) == Some(&Value::Bool(true));
            let count = |k| {
                p.and_then(|p| p.get(k))
                    .and_then(Value::as_i64)
                    .unwrap_or(0)
            };
            println!(
                "{w} {pass}: correct={ok} attempted={} failed={}",
                count("attempted"),
                count("failed")
            );
        }
    }

    let result = Value::object(vec![
        ("stamp", stamp(&out_dir)),
        ("seed", Value::Int(seed as i64)),
        ("window_seconds", seconds.into()),
        ("quick", quick.into()),
        ("all_checks_passed", all_ok.into()),
        ("workloads", Value::Object(sets)),
    ]);
    let path = if full {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        first_unused(&dir, &format!("full-seed{seed}"))
    } else {
        first_unused(&out_dir, &format!("partial-seed{seed}"))
    };
    std::fs::write(&path, result.to_json_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result set written to {}", path.display());
    Ok(if all_ok { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filesystem_type_takes_the_longest_matching_mount() {
        let table = "22 1 8:1 / / rw - ext4 /dev/vda rw\n\
                     23 22 0:5 / /tmp rw - tmpfs tmpfs rw\n\
                     24 22 0:6 / /tmpfiles rw - xfs /dev/vdb rw\n";
        assert_eq!(filesystem_type(Path::new("/tmp/x/y"), table), "tmpfs");
        assert_eq!(filesystem_type(Path::new("/root/repo"), table), "ext4");
        assert_eq!(filesystem_type(Path::new("/tmpfiles/a"), table), "xfs");
        assert_eq!(filesystem_type(Path::new("/x"), ""), "unknown");
    }
}
