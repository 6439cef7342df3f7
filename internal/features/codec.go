package features

import (
	"math"

	"smarteryou/internal/binio"
	"smarteryou/internal/sensing"
)

// Binary WindowSample encoding, shared by the durable store's WAL and
// snapshot codec (internal/store) and the wire protocol's envelope v2
// (internal/transport). Feature vectors are fixed dimension (Section V-C:
// nine candidate statistics per sensor, two sensors per device, two
// devices), so a window encodes to a fixed-width little-endian block plus
// one short length-prefixed string:
//
//	WindowSample:
//	  user id   uvarint length + bytes
//	  context   uvarint
//	  day       float64 LE
//	  4 sensor blocks (phone acc, phone gyr, watch acc, watch gyr),
//	  each 9 float64 LE in SensorFeatures field order
//
// The layout predates this file (it is the store's binFormatV1 sample
// encoding); moving it here lets the wire speak the exact same bytes the
// WAL persists, so a batch-enroll payload could in principle be appended
// to the log without re-encoding.

// SensorFeatureCount is the fixed SensorFeatures dimensionality.
const SensorFeatureCount = 9

// SampleFixedBytes is the fixed-width portion of an encoded WindowSample:
// the day stamp plus four sensor blocks.
const SampleFixedBytes = 8 + 4*SensorFeatureCount*8

// MinSampleBytes is the smallest possible encoded WindowSample (empty
// user id, one-byte context varint). Decoders use it to bound count
// prefixes so a corrupt count cannot cause a huge allocation.
const MinSampleBytes = 1 + 1 + SampleFixedBytes

// AppendSensorBinary appends one sensor block (all nine candidate
// statistics, in the paper's order).
func AppendSensorBinary(buf []byte, s SensorFeatures) []byte {
	for _, v := range [SensorFeatureCount]float64{
		s.Mean, s.Var, s.Max, s.Min, s.Ran, s.Peak, s.PeakF, s.Peak2, s.Peak2F,
	} {
		buf = binio.AppendF64(buf, v)
	}
	return buf
}

// AppendSampleBinary appends one encoded WindowSample.
func AppendSampleBinary(buf []byte, w WindowSample) []byte {
	buf = binio.AppendString(buf, w.UserID)
	buf = binio.AppendUvarint(buf, uint64(w.Context))
	buf = binio.AppendF64(buf, w.Day)
	buf = AppendSensorBinary(buf, w.Phone.Acc)
	buf = AppendSensorBinary(buf, w.Phone.Gyr)
	buf = AppendSensorBinary(buf, w.Watch.Acc)
	buf = AppendSensorBinary(buf, w.Watch.Gyr)
	return buf
}

// AppendSampleListBinary appends a uvarint count followed by each sample.
func AppendSampleListBinary(buf []byte, ws []WindowSample) []byte {
	buf = binio.AppendUvarint(buf, uint64(len(ws)))
	for _, w := range ws {
		buf = AppendSampleBinary(buf, w)
	}
	return buf
}

// EncodedSampleSize returns the exact encoded size of one sample, for
// preallocating buffers.
func EncodedSampleSize(w WindowSample) int {
	idLen := len(w.UserID)
	return binio.UvarintLen(uint64(idLen)) + idLen + binio.UvarintLen(uint64(w.Context)) + SampleFixedBytes
}

// EncodedSampleListSize returns the exact encoded size of a sample list.
func EncodedSampleListSize(ws []WindowSample) int {
	size := binio.UvarintLen(uint64(len(ws)))
	for _, w := range ws {
		size += EncodedSampleSize(w)
	}
	return size
}

// ReadSensorBinary decodes one sensor block.
func ReadSensorBinary(r *binio.Reader) SensorFeatures {
	return SensorFeatures{
		Mean: r.F64(), Var: r.F64(), Max: r.F64(), Min: r.F64(), Ran: r.F64(),
		Peak: r.F64(), PeakF: r.F64(), Peak2: r.F64(), Peak2F: r.F64(),
	}
}

// ReadSampleBinary decodes one WindowSample. A user id equal to one of
// known is that string, not a copy (see binio.Reader.Intern).
func ReadSampleBinary(r *binio.Reader, known ...string) WindowSample {
	var w WindowSample
	w.UserID = r.Intern(known...)
	w.Context = contextFromUint(r.Uvarint(), r)
	w.Day = r.F64()
	w.Phone.Acc = ReadSensorBinary(r)
	w.Phone.Gyr = ReadSensorBinary(r)
	w.Watch.Acc = ReadSensorBinary(r)
	w.Watch.Gyr = ReadSensorBinary(r)
	return w
}

// ReadSampleListBinary decodes a count-prefixed sample list, bounding the
// count by the remaining bytes, with user ids interned against known.
func ReadSampleListBinary(r *binio.Reader, known ...string) []WindowSample {
	n := ReadSampleCount(r)
	if n == 0 {
		return nil
	}
	out := ReadSamplesBinary(r, make([]WindowSample, 0, n), n, known...)
	if r.Err() != nil {
		return nil
	}
	return out
}

// ReadSampleCount reads a sample list's count prefix, bounded by the
// remaining bytes: 0 on a decode error.
func ReadSampleCount(r *binio.Reader) int {
	n := r.Uvarint()
	if r.Err() != nil {
		return 0
	}
	if n > uint64(r.Remaining()/MinSampleBytes)+1 {
		r.Fail("sample count %d exceeds %d remaining bytes", n, r.Remaining())
		return 0
	}
	return int(n)
}

// ReadSamplesBinary decodes n samples onto the end of dst, so a caller
// that owns dst's spare capacity decodes into it without allocating. On a
// decode error the windows past len(dst) are garbage and r.Err says so.
func ReadSamplesBinary(r *binio.Reader, dst []WindowSample, n int, known ...string) []WindowSample {
	for i := 0; i < n && r.Err() == nil; i++ {
		dst = append(dst, ReadSampleBinary(r, known...))
	}
	return dst
}

// SkipSamplesBinary moves r past n encoded samples without decoding
// them, failing where ReadSamplesBinary would: it checks what a decode
// checks (the id's length, the context's range, the fixed part's length)
// and reads no float.
func SkipSamplesBinary(r *binio.Reader, n int) {
	for i := 0; i < n && r.Err() == nil; i++ {
		r.StrBytes()
		contextFromUint(r.Uvarint(), r)
		r.Skip(SampleFixedBytes)
	}
}

// contextFromUint narrows a decoded context value. sensing.Context is a
// small enum; anything outside int32 range is corruption.
func contextFromUint(v uint64, r *binio.Reader) sensing.Context {
	if v > math.MaxInt32 {
		r.Fail("implausible context value %d", v)
		return 0
	}
	return sensing.Context(v)
}
