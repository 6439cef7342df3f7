package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzFrame reads arbitrary bytes as a sealed frame. Nothing may panic; a
// frame that is accepted re-seals to the same bytes, and with any one of
// its MAC or payload bytes flipped it fails the MAC.
func FuzzFrame(f *testing.F) {
	key := []byte("fuzz-key")
	names := NewNames(map[byte]string{1: "test.one", 0x72: "test.record"})
	seal := func(tb byte, payload []byte) []byte {
		frame := append(Begin(nil, tb), payload...)
		if err := NewConn(nil, key, 1<<20, 16).Seal(frame, names); err != nil {
			f.Fatalf("seal: %v", err)
		}
		return frame
	}
	f.Add(seal(1, nil))
	f.Add(seal(0x72, []byte("a record payload")))
	f.Add(append(seal(1, []byte{0}), seal(1, []byte{1})...))
	f.Add([]byte{0, 0, 0, 1, FormatSealed})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		read := func(b []byte) (byte, []byte, error) {
			return NewConn(bytes.NewBuffer(b), key, 1<<20, 64).Read(names)
		}
		tb, payload, err := read(data)
		if err != nil {
			return
		}
		frame := append(Begin(nil, tb), payload...)
		if err := NewConn(nil, key, 1<<20, 16).Seal(frame, names); err != nil {
			t.Fatalf("re-seal of an accepted frame: %v", err)
		}
		if !bytes.HasPrefix(data, frame) {
			t.Fatalf("accepted frame re-seals to\n%x\nread from\n%x", frame, data)
		}
		for _, i := range []int{6, len(frame) - 1} {
			flipped := append([]byte(nil), frame...)
			flipped[i] ^= 0x01
			if _, _, err := read(flipped); !errors.Is(err, ErrBadMAC) {
				t.Fatalf("byte %d flipped: %v, want ErrBadMAC", i, err)
			}
		}
	})
}
