//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml --
//! --workload NAME --seed N --seconds N --trace 0|1`, from the repository
//! root.

#![forbid(unsafe_code)]

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (code, lines) = eacp_perfbench::execute(
        &argv,
        eacp_perfbench::workloads::Size::full(),
        false,
        std::path::Path::new("."),
    );
    for line in lines {
        println!("{line}");
    }
    std::process::exit(code);
}
