//! Records the compiler flags the benchmark was built with, so every
//! result can be stamped with them (`target-cpu` changes the NN kernels).

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .split('\x1f')
        .filter(|f| !f.is_empty())
        .collect::<Vec<_>>()
        .join(" ");
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
