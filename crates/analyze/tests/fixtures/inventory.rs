//! Fixture: inventory drift. The file is clean, so it yields no
//! finding; `inventory_baseline.json` recorded a one-file tree, before
//! a second file joined it. Only the inventory comparison of
//! `--baseline` can see that change.

pub struct Demo {
    level: u8,
}

impl Demo {
    pub fn level(&self) -> u8 {
        self.level
    }
}
