//! Forwards the compiler flags the benchmark was built with (notably
//! `-C target-cpu=...`) into the binary, so every result can state them.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let flags = flags.replace('\u{1f}', " ");
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
