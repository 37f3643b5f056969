//! The timed benchmark binary: no spans, no counting allocator.

fn main() -> std::process::ExitCode {
    verifbench::main(false)
}
