//! Fixture: a composite codec whose reader decodes its two components
//! in the other order from its writer. Both components encode their
//! state under the same method names, so only the receiver tells the
//! calls apart; the components' own pair is symmetric and must NOT be
//! flagged.

pub struct Composite {
    epoch: u64,
    scheduler: Part,
    ladder: Part,
}

impl Composite {
    pub fn snapshot_bytes(&self, w: &mut SnapshotWriter) {
        w.put_uvar(self.epoch);
        self.scheduler.encode_state(w);
        self.ladder.encode_state(w);
    }

    pub fn restore_bytes(&mut self, r: &mut SnapshotReader) {
        self.epoch = r.take_uvar();
        self.ladder.decode_state(r);
        self.scheduler.decode_state(r);
    }
}

pub struct Part {
    level: u8,
}

impl Part {
    pub fn encode_state(&self, w: &mut SnapshotWriter) {
        w.put_u8(self.level);
    }

    pub fn decode_state(&mut self, r: &mut SnapshotReader) {
        self.level = r.take_u8();
    }
}
