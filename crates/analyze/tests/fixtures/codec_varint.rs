//! Fixture: a varint writer meets a fixed-width reader. `Counter`
//! writes its cycle count with `put_uvar` (1–10 bytes) but reads it
//! back with `take_u64` (always 8), so every field after it decodes
//! from the wrong offset; the `Deadline` pair is varint on both sides,
//! optional varint included, and must NOT be flagged.

pub struct Counter {
    cycles: u64,
    level: u8,
}

impl Counter {
    pub fn encode_counter(&self, w: &mut SnapshotWriter) {
        w.put_uvar(self.cycles);
        w.put_u8(self.level);
    }

    pub fn decode_counter(&mut self, r: &mut SnapshotReader) {
        self.cycles = r.take_u64();
        self.level = r.take_u8();
    }
}

pub struct Deadline {
    at_ms: u64,
    retry_ms: Option<u64>,
}

impl Deadline {
    pub fn encode_deadline(&self, w: &mut SnapshotWriter) {
        w.put_uvar(self.at_ms);
        w.put_opt_uvar(self.retry_ms);
    }

    pub fn decode_deadline(&mut self, r: &mut SnapshotReader) {
        self.at_ms = r.take_uvar();
        self.retry_ms = r.take_opt_uvar();
    }
}
