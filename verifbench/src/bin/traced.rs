//! The traced benchmark binary: layer spans and per-call heap growth.

#[global_allocator]
static ALLOC: velv_obs::CountingAlloc = velv_obs::CountingAlloc;

fn main() -> std::process::ExitCode {
    verifbench::main(true)
}
