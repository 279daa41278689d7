package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// walRecord frames one journal record the way AppendWAL does.
func walRecord(rec []byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(rec)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(rec))
	return append(buf, rec...)
}

// FuzzUnframe feeds arbitrary file contents to the frame decode that
// snapshot and ontology loads share. It must never panic, and whatever it
// accepts must be exactly the frame of the payload it returns.
func FuzzUnframe(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapMagic))
	f.Add(frame(nil))
	f.Add(frame([]byte(`{"schema":2,"id":"abc"}`)))
	f.Add(frame([]byte(`{"nodes":[{"v":"a","t":"T"}],"edges":[]}`))[:20])
	long := frame(bytes.Repeat([]byte("x"), 300))
	long[len(long)-1] ^= 0xFF
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := unframe(data)
		if err != nil {
			return
		}
		if !bytes.Equal(frame(payload), data) {
			t.Fatalf("unframe accepted %x, which is not the frame of its payload %x", data, payload)
		}
	})
}

// FuzzLoadWAL feeds arbitrary journal bytes to LoadWAL. It must never
// panic or fail: it returns the intact prefix of records, and reports (and
// quarantines) a torn tail exactly when bytes beyond that prefix remain.
func FuzzLoadWAL(f *testing.F) {
	f.Add([]byte{})
	f.Add(walRecord([]byte(`{"seq":5,"op":"answer"}`)))
	two := append(walRecord([]byte(`{"seq":1,"op":"infer","mode":"topk"}`)), walRecord([]byte(`{"seq":2,"op":"feedback"}`))...)
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add(append(walRecord([]byte("ok")), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0))
	bad := walRecord([]byte("flipped"))
	bad[len(bad)-1] ^= 1
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := os.WriteFile(filepath.Join(s.Dir(), "abc"+walSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, torn, err := s.LoadWAL("abc")
		if err != nil {
			t.Fatalf("LoadWAL: %v", err)
		}
		var prefix []byte
		for _, rec := range recs {
			prefix = append(prefix, walRecord(rec)...)
		}
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("records %q are not a prefix of the journal", recs)
		}
		if torn != (len(prefix) < len(data)) {
			t.Fatalf("torn = %v with %d of %d bytes decoded", torn, len(prefix), len(data))
		}
		if _, err := os.Stat(filepath.Join(s.Dir(), "abc"+walSuffix)); torn != os.IsNotExist(err) {
			t.Fatalf("torn = %v but journal in place = %v", torn, err == nil)
		}
	})
}
