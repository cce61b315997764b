package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzReadJournal hardens the journal decoder iawjreport runs on
// arbitrary files: parse or error, never panic. An accepted journal is
// non-empty, every entry carries an iawj schema, every window entry its
// identity, and re-encoding it is a fixed point: the re-read journal
// encodes to the same bytes.
func FuzzReadJournal(f *testing.F) {
	f.Add([]byte(`{"schema":"iawj-journal/v1","kind":"run","algorithm":"NPJ","matches":7,"throughput_tuples_per_ms":1.5}` + "\n"))
	var v2 bytes.Buffer
	jw := NewJournalWriter(&v2)
	_ = jw.WriteHeader()
	_ = jw.Write(metricsResultFixture())
	_ = jw.WriteWindow(metricsResultFixture(), 3, 300, 400)
	f.Add(v2.Bytes())
	f.Add([]byte(`{"schema":"iawj-journal/v2","kind":"window","algorithm":"NPJ"}`))
	f.Add([]byte("\n \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		if j.Env == nil && len(j.Runs) == 0 && len(j.Windows) == 0 {
			t.Fatal("accepted an empty journal")
		}
		for _, e := range append(append([]JournalEntry(nil), j.Runs...), j.Windows...) {
			if !strings.HasPrefix(e.Schema, journalSchemaPrefix) {
				t.Fatalf("accepted schema %q", e.Schema)
			}
		}
		for _, e := range j.Windows {
			if e.Window == nil {
				t.Fatal("accepted a window entry without identity")
			}
		}
		enc := encodeJournal(t, j)
		j2, err := ReadJournal(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded journal rejected: %v\n%s", err, enc)
		}
		if again := encodeJournal(t, j2); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\nvs\n%s", enc, again)
		}
	})
}

// encodeJournal writes j back as JSONL: the header first, then runs and
// windows in file order.
func encodeJournal(t *testing.T, j Journal) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var entries []JournalEntry
	if j.Env != nil {
		entries = append(entries, JournalEntry{Schema: JournalSchema, Kind: "header", Env: j.Env})
	}
	entries = append(append(entries, j.Runs...), j.Windows...)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}
