package sketch

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// withCRC appends the CRC-32C trailer both decoders verify. The fuzz
// harnesses treat their input as the body of an encoding and seal it,
// so mutations reach the structural checks instead of dying at the
// checksum (a checksum-valid encoding is trivial to craft: the CRC is
// corruption detection, not a trust boundary).
func withCRC(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crcTable))
}

// bodyOf strips the CRC trailer from a real encoding, turning it into
// a fuzz seed.
func bodyOf(enc []byte) []byte { return enc[:len(enc)-4] }

// FuzzSketchUnmarshalBinary feeds arbitrary checksum-sealed bytes to
// UnmarshalBinary. The decoder must either reject the input with an
// error or accept it — never panic, and never allocate proportionally
// to an unvalidated length field. Accepted inputs must re-marshal to
// the same bytes (acceptance means the encoding was canonical), and
// Add/Merge/Quantile on the decoded state must not panic.
func FuzzSketchUnmarshalBinary(f *testing.F) {
	// Seed with real encodings at a few sizes, plus their truncations
	// and the degenerate inputs the error paths handle.
	for _, n := range []int{0, 1, 100} {
		s := NewSeeded(32, 7)
		for i := 0; i < n; i++ {
			s.Add(float64(i) * 1.5)
		}
		enc, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bodyOf(enc))
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("ppaq"))
	f.Add([]byte("ppaq\x01"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, body []byte) {
		data := withCRC(body)
		var s Sketch
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted input failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted a non-canonical encoding:\n in: %x\nout: %x", data, out)
		}
		var twin Sketch
		if err := twin.UnmarshalBinary(data); err != nil {
			t.Fatalf("second decode of accepted input failed: %v", err)
		}
		s.Add(1.5)
		s.Merge(&twin)
		_ = s.Quantile(0.5)
		_ = s.Quantile(0.99)
		fresh := NewSeeded(32, 7)
		fresh.Merge(&twin)
		_ = fresh.Quantile(0.95)
	})
}

// FuzzWeightedUnmarshalBinary is FuzzSketchUnmarshalBinary for the
// "ppaw" weighted encoding — the bytes every campaign shard state
// carries from a worker to the coordinator.
func FuzzWeightedUnmarshalBinary(f *testing.F) {
	for _, n := range []int{0, 1, 100, 300} {
		s := NewSeededWeighted(16, 7)
		for i := 0; i < n; i++ {
			s.Add(float64(i)*1.5, 1+float64(i%3))
		}
		enc, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bodyOf(enc))
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("ppaw"))
	f.Add([]byte("ppaw\x01"))
	f.Add(bytes.Repeat([]byte{0xff}, 96))

	f.Fuzz(func(t *testing.T, body []byte) {
		data := withCRC(body)
		var s Weighted
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted input failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted a non-canonical encoding:\n in: %x\nout: %x", data, out)
		}
		var twin Weighted
		if err := twin.UnmarshalBinary(data); err != nil {
			t.Fatalf("second decode of accepted input failed: %v", err)
		}
		s.Add(1.5, 1)
		s.Merge(&twin)
		_ = s.Quantile(0.5)
		_ = s.Quantile(0.99)
		fresh := NewSeededWeighted(16, 7)
		fresh.Merge(&twin)
		_ = fresh.Quantile(0.95)
	})
}
