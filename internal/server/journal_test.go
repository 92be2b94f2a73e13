package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// rec is shorthand for building journal records in tests.
func rec(job string, state State, mut ...func(*Record)) Record {
	r := Record{V: journalVersion, Job: job, State: state}
	for _, m := range mut {
		m(&r)
	}
	return r
}

func encodeRecords(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
	}
	return buf
}

// TestDecodeJournalLongestPrefix pins the recovery contract: everything
// before the first malformed line is kept, everything at and after it is
// dropped, and a torn (newline-less) tail never counts.
func TestDecodeJournalLongestPrefix(t *testing.T) {
	valid := encodeRecords(t, []Record{
		rec("j-000001", StateQueued, func(r *Record) { r.SpecKey = "ab12" }),
		rec("j-000001", StateRunning),
	})
	cases := []struct {
		label string
		data  []byte
		want  int
	}{
		{"empty", nil, 0},
		{"clean", valid, 2},
		{"torn tail", append(append([]byte{}, valid...), `{"v":1,"job":"j-00`...), 2},
		{"garbage line", append(append([]byte{}, valid...), "not json\n"...), 2},
		{"garbage then valid", append([]byte("not json\n"), valid...), 0},
		{"wrong version", append(append([]byte{}, valid...), `{"v":9,"job":"j-000002","state":"queued"}`+"\n"...), 2},
		{"unknown state", append(append([]byte{}, valid...), `{"v":1,"job":"j-000002","state":"paused"}`+"\n"...), 2},
		{"missing job", append(append([]byte{}, valid...), `{"v":1,"state":"queued"}`+"\n"...), 2},
		{"binary noise", []byte{0, 1, 2, 0xff, '\n'}, 0},
	}
	for _, tc := range cases {
		if got := decodeJournal(tc.data); len(got) != tc.want {
			t.Errorf("%s: decoded %d records, want %d", tc.label, len(got), tc.want)
		}
	}
}

// TestCompactRecordsTerminalSticky pins the out-of-order guard: a fast job's
// terminal record can hit the journal before its queued record (submit
// appends outside the server lock), and replay must not resurrect it.
func TestCompactRecordsTerminalSticky(t *testing.T) {
	recs := []Record{
		rec("j-000001", StateRunning),
		rec("j-000001", StateSucceeded, func(r *Record) { r.Accesses = 500; r.Cached = true }),
		rec("j-000001", StateQueued, func(r *Record) { r.SpecKey = "ab12"; r.Source = "bwaves"; r.UnixMS = 7 }),
	}
	out := compactRecords(recs)
	if len(out) != 1 {
		t.Fatalf("compacted to %d records, want 1", len(out))
	}
	got := out[0]
	if got.State != StateSucceeded || got.Accesses != 500 || !got.Cached {
		t.Errorf("terminal state not sticky: %+v", got)
	}
	if got.SpecKey != "ab12" || got.Source != "bwaves" || got.UnixMS != 7 {
		t.Errorf("spec fields not merged from late queued record: %+v", got)
	}
}

// TestCompactRecordsOrderAndMerge checks submission order survives and that
// a normal lifecycle folds to its terminal record.
func TestCompactRecordsOrderAndMerge(t *testing.T) {
	recs := []Record{
		rec("j-000001", StateQueued, func(r *Record) { r.SpecKey = "aa"; r.UnixMS = 1 }),
		rec("j-000002", StateQueued, func(r *Record) { r.SpecKey = "bb"; r.UnixMS = 2 }),
		rec("j-000001", StateRunning),
		rec("j-000002", StateRunning),
		rec("j-000002", StateFailed, func(r *Record) { r.Error = "boom"; r.Accesses = 9 }),
	}
	out := compactRecords(recs)
	if len(out) != 2 || out[0].Job != "j-000001" || out[1].Job != "j-000002" {
		t.Fatalf("order not preserved: %+v", out)
	}
	if out[0].State != StateRunning || out[0].SpecKey != "aa" || out[0].UnixMS != 1 {
		t.Errorf("j-000001 merged wrong: %+v", out[0])
	}
	if out[1].State != StateFailed || out[1].Error != "boom" || out[1].Accesses != 9 {
		t.Errorf("j-000002 merged wrong: %+v", out[1])
	}
}

// TestJournalCompactionOnOpen writes a chatty journal, reopens it, and
// requires the on-disk file to shrink to one line per job while replay sees
// the merged state. A torn tail must survive neither the decode nor the
// compaction rewrite.
func TestJournalCompactionOnOpen(t *testing.T) {
	dir := t.TempDir()
	j1, recs, err := OpenRecordJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	for _, r := range []Record{
		rec("j-000001", StateQueued, func(r *Record) { r.SpecKey = "aa" }),
		rec("j-000001", StateRunning),
		rec("j-000001", StateSucceeded, func(r *Record) { r.Accesses = 100 }),
		rec("j-000002", StateQueued, func(r *Record) { r.SpecKey = "bb" }),
		rec("j-000002", StateRunning),
	} {
		if err := j1.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn final append.
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"v":1,"job":"j-0000`)
	f.Close()

	j2, recs, err := OpenRecordJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	if recs[0].Job != "j-000001" || recs[0].State != StateSucceeded || recs[0].Accesses != 100 {
		t.Errorf("j-000001 replay: %+v", recs[0])
	}
	if recs[1].Job != "j-000002" || recs[1].State != StateRunning || recs[1].SpecKey != "bb" {
		t.Errorf("j-000002 replay: %+v", recs[1])
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 {
		t.Errorf("compacted journal has %d lines, want 2:\n%s", lines, data)
	}
	if int64(len(data)) != j2.Bytes() {
		t.Errorf("Bytes() = %d, file is %d", j2.Bytes(), len(data))
	}
}

// FuzzJournal hammers the replay decoder with arbitrary bytes: it must never
// panic, must only return valid records, and the decoded prefix must
// round-trip (re-encode → re-decode → identical), which is exactly what the
// on-open compaction rewrite relies on. Wired into `make fuzz-smoke` and CI.
func FuzzJournal(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"v":1,"job":"j-000001","state":"queued","spec_key":"ab","source":"bwaves","unix_ms":5}` + "\n"))
	f.Add([]byte(`{"v":1,"job":"j-000001","state":"queued"}` + "\n" + `{"v":1,"job":"j-000001","state":"succeeded","accesses":7,"cached":true}` + "\n"))
	f.Add([]byte(`{"v":1,"job":"j-000001","state":"queued"}` + "\n" + `{"v":1,"job":"j-0`))
	f.Add([]byte(`{"v":2,"job":"j-000001","state":"queued"}` + "\n"))
	f.Add([]byte(`{"v":1,"job":"","state":"queued"}` + "\n"))
	f.Add([]byte(`{"v":1,"job":"j-000001","state":"paused"}` + "\n"))
	f.Add([]byte("\x00\x01\xff\n"))
	f.Add([]byte("[]\n{}\ntrue\n"))
	// Coordinator records: sweep ids, a sweep hash as the spec key, done
	// points as accesses, and no source or trace path.
	f.Add([]byte(`{"v":1,"job":"s-000001","state":"queued","spec_key":"cd34","unix_ms":9}` + "\n" + `{"v":1,"job":"s-000001","state":"running","unix_ms":10}` + "\n"))
	f.Add([]byte(`{"v":1,"job":"s-000002","state":"succeeded","spec_key":"cd34","accesses":24,"unix_ms":11}` + "\n" + `{"v":1,"job":"s-000003","state":"failed","error":"point 0: gave up","accesses":3}` + "\n"))
	f.Add([]byte(`{"v":1,"job":"s-000001","state":"cancelled","spec_key":"cd34"}` + "\n" + `{"v":1,"job":"j-000001","state":"queued"}` + "\n" + `{"v":1,"job":"s-0`))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := decodeJournal(data)
		for i, r := range recs {
			if !r.valid() {
				t.Fatalf("record %d invalid: %+v", i, r)
			}
		}
		var buf []byte
		for _, r := range recs {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			buf = append(buf, b...)
			buf = append(buf, '\n')
		}
		again := decodeJournal(buf)
		if len(again) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(again, recs)) {
			t.Fatalf("round trip changed records:\n%+v\nvs\n%+v", recs, again)
		}
		if out := compactRecords(recs); len(out) > len(recs) {
			t.Fatalf("compaction grew the record set: %d -> %d", len(recs), len(out))
		}
	})
}

// TestAcquireDirLock pins the daemon-lock lifecycle: acquire, conflict with
// a live holder, release, stale-lock takeover.
func TestAcquireDirLock(t *testing.T) {
	dir := t.TempDir()
	release, err := AcquireDirLock(dir)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// The lock records this process's pid — a second acquire must refuse.
	if _, err := AcquireDirLock(dir); err == nil {
		t.Fatal("second acquire succeeded while the lock is held by a live pid")
	} else if !strings.Contains(err.Error(), "locked by running sramd") {
		t.Fatalf("conflict error not descriptive: %v", err)
	}
	release()
	release2, err := AcquireDirLock(dir)
	if err != nil {
		t.Fatalf("reacquire after release: %v", err)
	}
	release2()

	// A stale lock — pid that no longer runs — is taken over.
	if err := os.WriteFile(filepath.Join(dir, lockFile), []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	release3, err := AcquireDirLock(dir)
	if err != nil {
		t.Fatalf("stale-lock takeover: %v", err)
	}
	release3()

	// An unreadable-pid lock is equally stale.
	if err := os.WriteFile(filepath.Join(dir, lockFile), []byte("not a pid"), 0o644); err != nil {
		t.Fatal(err)
	}
	release4, err := AcquireDirLock(dir)
	if err != nil {
		t.Fatalf("garbled-lock takeover: %v", err)
	}
	release4()
}

// TestAcquireDirLockUnwritable pins the fail-fast path for a read-only
// directory.
func TestAcquireDirLockUnwritable(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("running as root: chmod 0500 does not block writes")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o500); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if _, err := AcquireDirLock(dir); err == nil {
		t.Fatal("acquire succeeded on a read-only directory")
	} else if !strings.Contains(err.Error(), "not writable") {
		t.Fatalf("unwritable error not descriptive: %v", err)
	}
}

// TestRetainRecords pins the retention filter's edges: only terminal,
// timestamped, out-of-window records are dropped; a zero window keeps all.
func TestRetainRecords(t *testing.T) {
	now := time.Unix(10_000, 0)
	old := now.Add(-2 * time.Hour).UnixMilli()
	fresh := now.Add(-time.Minute).UnixMilli()
	recs := []Record{
		{V: 1, Job: "j-1", State: StateSucceeded, UnixMS: old}, // aged out
		{V: 1, Job: "j-2", State: StateFailed, UnixMS: fresh},  // in window
		{V: 1, Job: "j-3", State: StateRunning, UnixMS: old},   // live: kept
		{V: 1, Job: "j-4", State: StateCancelled},              // no stamp: kept
	}
	got := retainRecords(append([]Record(nil), recs...), time.Hour, now)
	if len(got) != 3 || got[0].Job != "j-2" || got[1].Job != "j-3" || got[2].Job != "j-4" {
		t.Fatalf("retainRecords kept %+v", got)
	}
	if got := retainRecords(append([]Record(nil), recs...), 0, now); len(got) != len(recs) {
		t.Fatalf("zero window dropped records: %+v", got)
	}
}
