//! Run the paper's §7 future-work extension: prefetch-aware scheduling.
use pythia_experiments::{extensions, Env, ExpConfig};

fn main() {
    let env = Env::new(ExpConfig::from_env());
    extensions::run_scheduler(&env).emit("ext_scheduler");
}
