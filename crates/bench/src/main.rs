//! `hetsched-bench <figure> [flags]`: runs one declared figure (see the
//! library docs for the flags and `figures::FIGURES` for the figures) and
//! exits non-zero when one of its gated claims fails.

use hetsched_bench::{figures, run, Mode};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let mode = Mode::parse(args);
    let Some(figure) = figures::declare(&name, mode.scale) else {
        eprintln!(
            "usage: hetsched-bench <figure> [--full | --quick | --scale X | --reps N | \
             --threads N | --json PATH | --obs PATH]\nfigures: {}",
            figures::FIGURES.map(|f| f.0).join(" ")
        );
        std::process::exit(2);
    };
    if !run(&figure, &mode) {
        eprintln!("{name}: a gated claim failed");
        std::process::exit(1);
    }
}
