package durability

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// faultFile is a walFile that writes through to a real file and injects
// faults on demand: shortWrite makes the next Write land only its first
// five bytes and report success anyway (as a buggy or interrupted writer
// might); syncErr makes every Sync fail. It counts the calls that reach it.
type faultFile struct {
	*os.File
	shortWrite bool
	syncErr    error
	writes     int
	syncs      int
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.writes++
	if f.shortWrite {
		f.shortWrite = false
		return f.File.Write(p[:5])
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	f.syncs++
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.File.Sync()
}

// openFaultLog opens a real log at a fresh path and routes its writes
// through a faultFile.
func openFaultLog(t *testing.T, fsync FsyncPolicy) (*Log, *faultFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenLog(path, fsync)
	if err != nil {
		t.Fatal(err)
	}
	ff := &faultFile{File: l.f.(*os.File)}
	l.f = ff
	return l, ff, path
}

func versions(t *testing.T, path string) []uint64 {
	t.Helper()
	recs, _, err := ReadLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for _, r := range recs {
		out = append(out, r.Version)
	}
	return out
}

// TestShortWriteFailsStop: after a short write no later record is
// acknowledged, so recovery's torn-tail truncation cannot discard an
// acknowledged update; reopening the log repairs it and appends resume.
func TestShortWriteFailsStop(t *testing.T) {
	l, ff, path := openFaultLog(t, FsyncNever)
	if err := l.Append(&Record{Version: 1}); err != nil {
		t.Fatal(err)
	}
	ff.shortWrite = true
	if err := l.Append(&Record{Version: 2}); err == nil {
		t.Fatal("short write acknowledged")
	}
	// The disk is healthy again, but the log must stay failed.
	for v := uint64(3); v <= 4; v++ {
		if err := l.Append(&Record{Version: v}); err == nil {
			t.Fatalf("record %d acknowledged after a failed write", v)
		}
	}
	if ff.writes != 2 {
		t.Fatalf("writes reaching the file = %d, want 2", ff.writes)
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded on a failed log")
	}
	if err := l.Reset(); err == nil {
		t.Fatal("Reset succeeded on a failed log")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close of a failed log reported no error")
	}

	recs, stats, err := ReadLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Version != 1 || !stats.TornTail {
		t.Fatalf("recovered %d records (torn tail %v), want version 1 and a torn tail", len(recs), stats.TornTail)
	}
	l2, err := OpenLog(path, FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(&Record{Version: 2}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := versions(t, path); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("versions after reopen = %v, want [1 2]", got)
	}
}

// TestFsyncErrorFailsStop: a failed fsync fails the append and every later
// one, and fsync is never called again on that handle.
func TestFsyncErrorFailsStop(t *testing.T) {
	l, ff, _ := openFaultLog(t, FsyncAlways)
	if err := l.Append(&Record{Version: 1}); err != nil {
		t.Fatal(err)
	}
	ff.syncErr = syscall.EIO
	err := l.Append(&Record{Version: 2})
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("append with failing fsync = %v, want EIO", err)
	}
	ff.syncErr = nil // a retried fsync would now "succeed"
	if err := l.Append(&Record{Version: 3}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after fsync failure = %v, want the sticky EIO", err)
	}
	if err := l.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync after fsync failure = %v, want the sticky EIO", err)
	}
	if err := l.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close after fsync failure = %v, want the sticky EIO", err)
	}
	if ff.syncs != 2 || ff.writes != 2 {
		t.Fatalf("file saw %d fsyncs and %d writes, want 2 and 2", ff.syncs, ff.writes)
	}
	if l.AppendCount() != 1 {
		t.Fatalf("AppendCount = %d, want 1 acknowledged record", l.AppendCount())
	}
}
