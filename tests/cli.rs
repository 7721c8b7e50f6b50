//! The command-line front end end to end: sparse node ids in, the same ids
//! out.

use std::process::Command;

/// Runs the CLI on `edges` written to a temporary file, returning stdout.
fn run_cli(edges: &str, args: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!("cp_cli_test_{}.txt", std::process::id()));
    std::fs::write(&path, edges).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_converging-pairs"))
        .arg(&path)
        .args(args)
        .output()
        .expect("the CLI binary runs");
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("TSV output is UTF-8")
}

#[test]
fn tsv_output_carries_the_original_node_ids() {
    // A path 10-20-30-50-4000000000, then a chord closing it. A universe
    // sized by the largest id would need 4·10⁹ nodes; compacted it has 5.
    let edges = "10 20\n20 30\n30 50\n50 4000000000\n10 4000000000\n";
    let stdout = run_cli(edges, &["--exact", "--delta-min", "1"]);
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("u\tv\tdelta"));
    let rows: Vec<(u64, u64, u32)> = lines
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            (
                f[0].parse().unwrap(),
                f[1].parse().unwrap(),
                f[2].parse().unwrap(),
            )
        })
        .collect();
    // The chord shortens the end-to-end distance from 4 to 1.
    assert_eq!(rows.first(), Some(&(10, 4_000_000_000, 3)));
    let labels = [10, 20, 30, 50, 4_000_000_000];
    for &(u, v, _) in &rows {
        assert!(
            labels.contains(&u) && labels.contains(&v),
            "({u}, {v}) is not a pair of file ids"
        );
    }
}
