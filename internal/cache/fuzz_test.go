package cache

import (
	"bytes"
	"testing"
)

// FuzzReadEntry feeds arbitrary (key, file bytes) to the disk tier's
// entry decoder, the reader of files anything may have written or
// damaged. It must never panic, and an entry it accepts must be exactly
// the bytes Put writes for that key and value: nothing the format does
// not cover (a torn tail, trailing bytes, a flipped bit) is ever served.
func FuzzReadEntry(f *testing.F) {
	good := encodeEntry("policy|e=8|s=16|w=1", []byte(`{"ratio":1.2345}`))
	f.Add("policy|e=8|s=16|w=1", good)
	f.Add("policy|e=8|s=16|w=1", good[:len(good)-6])
	f.Add("policy|e=8|s=16|w=1", append(append([]byte(nil), good...), 'x'))
	f.Add("other", good)
	f.Add("k", encodeEntry("k", nil))
	f.Add("k", []byte("RDC1\x01\x00\x00\x00kvalue"))
	f.Add("", []byte("RDC2"))
	f.Add("", []byte{})
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		val, err := decodeEntry(data, key)
		if err != nil {
			return
		}
		if again := encodeEntry(key, val); !bytes.Equal(again, data) {
			t.Fatalf("accepted entry re-encodes to %q, input was %q", again, data)
		}
	})
}
