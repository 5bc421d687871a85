package cliutil

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteFileUnwritablePath: a path whose directory does not exist is
// reported with the path in the error, and write never runs.
func TestWriteFileUnwritablePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "out.json")
	err := WriteFile(path, func(io.Writer) error {
		t.Error("write ran for a file that could not be created")
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("err = %v, want an error naming %s", err, path)
	}
}

// TestWriteFileWriteError: a failing write is returned (wrapped, naming
// the path) and the file is closed anyway.
func TestWriteFileWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	boom := errors.New("boom")
	var f *os.File
	err := WriteFile(path, func(w io.Writer) error {
		f = w.(*os.File)
		return boom
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), path) {
		t.Fatalf("err = %v, want %v naming %s", err, boom, path)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("file still open after a failed write: Write returned %v", err)
	}
}

// TestWriteFileWrites: on success the bytes land in the file.
func TestWriteFileWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "hello\n" {
		t.Fatalf("file = %q, %v; want %q", b, err, "hello\n")
	}
}

// TestRecover: a panic becomes "what: value"; a normal return is nil.
func TestRecover(t *testing.T) {
	if err := Recover("profiling failed", func() {}); err != nil {
		t.Fatalf("err = %v for a normal return", err)
	}
	err := Recover("profiling failed", func() { panic("micro: unknown profiled op bogus") })
	if err == nil || err.Error() != "profiling failed: micro: unknown profiled op bogus" {
		t.Fatalf("err = %v", err)
	}
}

// TestCheckChoice: a valid value returns, and an unknown one exits 2 with
// every choice quoted in the message. The exit runs in a child copy of
// the test binary.
func TestCheckChoice(t *testing.T) {
	choices := []string{"KVM ARM", "KVM ARM (VHE)"}
	if os.Getenv("CLIUTIL_CHECK_CHOICE") == "1" {
		CheckChoice("platform", "nope", choices)
		return
	}
	CheckChoice("platform", "KVM ARM (VHE)", choices)

	cmd := exec.Command(os.Args[0], "-test.run=^TestCheckChoice$")
	cmd.Env = append(os.Environ(), "CLIUTIL_CHECK_CHOICE=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("unknown choice: err = %v, want exit status 2", err)
	}
	want := `unknown platform "nope"; choose one of "KVM ARM", "KVM ARM (VHE)"` + "\n"
	if stderr.String() != want {
		t.Fatalf("stderr = %q, want %q", stderr.String(), want)
	}
}
