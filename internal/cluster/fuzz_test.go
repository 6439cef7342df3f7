package cluster

import (
	"reflect"
	"testing"

	"smarteryou/internal/wire"
)

// FuzzShardMap drives arbitrary bytes through every decoder that reads
// peer-controlled input on the cluster control wire: the shard-map
// codec and each control-frame payload decoder. Decoders must reject or
// accept without panicking, and anything accepted by the map codec must
// survive an encode/decode round trip unchanged (byte canonicality is
// not required: uvarint readers tolerate non-minimal encodings).
func FuzzShardMap(f *testing.F) {
	m := &ShardMap{
		Version: 7,
		Nodes: []NodeInfo{
			{ClientAddr: "a:1", ReplAddr: "a:2", CtrlAddr: "a:3"},
			{ClientAddr: "b:1", ReplAddr: "b:2", CtrlAddr: "b:3"},
		},
		Owner: []int32{0, 1, 0},
	}
	f.Add(m.AppendBinary(nil))
	f.Add([]byte("SMAP"))
	f.Add([]byte{})
	// Control-frame payloads, as a listener reads them once the MAC
	// verified, one per frame type that carries one.
	for _, frame := range [][]byte{
		encodeSealRequest(sealRequest{shard: 3}),
		encodeCursorResponse(99),
		encodeMapFrame(ctrlMapPush, m),
		encodeCtrlErr("boom"),
	} {
		f.Add(frame[wire.HeaderBytes:])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if decoded, err := DecodeShardMap(data); err == nil {
			enc := decoded.AppendBinary(nil)
			again, err := DecodeShardMap(enc)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(again, decoded) {
				t.Fatalf("re-decode mismatch: %+v vs %+v", again, decoded)
			}
		}
		// Payload decoders see bytes only after MAC verification in
		// production, but they must still never panic on garbage.
		_, _ = decodeSealRequest(data)
		_, _ = decodeCursorResponse(data)
		_ = decodeCtrlErr(data)
	})
}
