//! One module per paper artifact; each exposes `run(scale) -> String`.

pub mod ablation;
pub mod fig2;
pub mod fig34;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig8f;
pub mod table0;
pub mod table1;
