//! Fixture: inventory drift. The pair is symmetric, so it yields no
//! finding; `inventory_baseline.json` recorded it with two ops and a
//! one-file tree, before `window` was added to both sides and a second
//! file joined the tree. Only the inventory comparison of `--baseline`
//! can see that change.

pub struct Demo {
    level: u8,
    count: u64,
    window: u64,
}

impl Demo {
    pub fn encode_state(&self, w: &mut SnapshotWriter) {
        w.put_u8(self.level);
        w.put_u64(self.count);
        w.put_u64(self.window);
    }

    pub fn decode_state(&mut self, r: &mut SnapshotReader) {
        self.level = r.take_u8();
        self.count = r.take_u64();
        self.window = r.take_u64();
    }
}
