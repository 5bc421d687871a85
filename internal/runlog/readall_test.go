package runlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"
)

func readIDs(t *testing.T, data string) []string {
	t.Helper()
	es, err := ReadAll(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range es {
		ids = append(ids, e.ID)
	}
	return ids
}

// A torn final line (a crash mid-append) is skipped; every complete line
// before it is returned.
func TestReadAllTornFinalLine(t *testing.T) {
	got := readIDs(t, `{"id":"a"}`+"\n"+`{"id":"b"}`+"\n"+`{"id":"c`)
	if strings.Join(got, ",") != "a,b" {
		t.Errorf("ids = %v, want [a b]", got)
	}
}

// CRLF line endings parse like LF ones.
func TestReadAllCRLF(t *testing.T) {
	got := readIDs(t, `{"id":"a"}`+"\r\n"+`{"id":"b"}`+"\r\n")
	if strings.Join(got, ",") != "a,b" {
		t.Errorf("ids = %v, want [a b]", got)
	}
}

// A line over the size bound is skipped and the scan goes on: the entries
// after it are still returned.
func TestReadAllOversizedLineSkipped(t *testing.T) {
	huge := `{"id":"huge","target":"` + strings.Repeat("x", maxLineBytes) + `"}`
	got := readIDs(t, `{"id":"a"}`+"\n"+huge+"\n"+`{"id":"b"}`+"\n")
	if strings.Join(got, ",") != "a,b" {
		t.Errorf("ids = %v, want [a b]", got)
	}
}

// A read error is returned, not mistaken for the end of the ledger.
func TestReadAllReturnsReadError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := ReadAll(iotest.ErrReader(boom)); !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
}

// legacyParLine is a ledger line as written while requests could ask for
// an engine worker count (?par=N): it carries a "par" field that Entry no
// longer has.
const legacyParLine = `{"id":"m1x2-000007","start":"2026-10-17T11:00:00Z","endpoint":"experiment","target":"PD1","format":"rows","study_hash":"9f2c","status":200,"outcome":"miss","par":4,"total_us":8123}`

// A ledger written before the "par" field was dropped still decodes: the
// unknown field is ignored and every other field survives.
func TestReadAllDecodesLegacyParField(t *testing.T) {
	es, err := ReadAll(strings.NewReader(legacyParLine + "\n" + `{"id":"b"}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 {
		t.Fatalf("decoded %d entries, want 2", len(es))
	}
	e := es[0]
	if e.ID != "m1x2-000007" || e.Target != "PD1" || e.Format != "rows" ||
		e.Status != 200 || e.Outcome != "miss" || e.TotalUS != 8123 {
		t.Errorf("legacy entry decoded as %+v", e)
	}
}

// FuzzReadAll checks that ReadAll never panics and that junk never hides
// a well-formed line after it: appending one complete entry line to any
// input adds exactly that entry to the end of the result.
func FuzzReadAll(f *testing.F) {
	f.Add([]byte(`{"id":"a"}`+"\n"+`{"id":"b`), "c")
	f.Add([]byte("\r\n\n{}\n[1,2]\n"), "run-1")
	f.Add([]byte(`{"id":"x","status":"nope"}`), "y")
	f.Fuzz(func(t *testing.T, junk []byte, id string) {
		before, err := ReadAll(bytes.NewReader(append(junk, '\n')))
		if err != nil {
			t.Fatal(err)
		}
		if id == "" || !utf8.ValidString(id) {
			return // not a well-formed entry line
		}
		line, _ := json.Marshal(Entry{ID: id})
		in := append(append(append([]byte{}, junk...), '\n'), line...)
		after, err := ReadAll(bytes.NewReader(append(in, '\n')))
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before)+1 || after[len(after)-1].ID != id {
			t.Fatalf("well-formed line after junk lost: %d entries before, %d after", len(before), len(after))
		}
	})
}
