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
