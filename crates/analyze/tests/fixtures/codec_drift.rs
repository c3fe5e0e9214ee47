//! Fixture: snapshot-codec drift. The `Drifted` pair reorders fields
//! and narrows a width between writer and reader; the `Clean` pair is
//! symmetric and must NOT be flagged (precision guard).

pub struct Drifted {
    count: u64,
    flag: bool,
}

impl Drifted {
    pub fn snapshot_bytes(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.count);
        w.put_bool(self.flag);
        w.put_opt_uvar(None);
    }

    pub fn restore_bytes(&mut self, r: &mut SnapshotReader) {
        self.flag = r.take_bool();
        self.count = u64::from(r.take_u8());
        let _ = r.take_opt_uvar();
    }
}

pub struct Clean {
    level: u8,
    window: u64,
}

impl Clean {
    pub fn encode_state(&self, w: &mut SnapshotWriter) {
        w.put_u8(self.level);
        w.put_u64(self.window);
    }

    pub fn decode_state(&mut self, r: &mut SnapshotReader) {
        self.level = r.take_u8();
        self.window = r.take_u64();
    }
}
