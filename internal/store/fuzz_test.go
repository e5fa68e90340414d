package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"
)

// headerField returns the value of the "name: value" line in an entry's
// header, parsed independently of decodeEntry.
func headerField(raw []byte, name string) (string, bool) {
	header, _, _ := bytes.Cut(raw, []byte("\n\n"))
	for _, line := range strings.Split(string(header), "\n") {
		if v, ok := strings.CutPrefix(line, name+": "); ok {
			return v, true
		}
	}
	return "", false
}

// FuzzDecodeEntry feeds arbitrary bytes to the on-disk entry parser. It must
// never panic; whatever it accepts must carry exactly the payload its header
// promises (length and checksum), and re-encoding the decoded key and payload
// must decode back to the same pair.
func FuzzDecodeEntry(f *testing.F) {
	f.Add(encodeEntry("wg-job v3 bench=hotspot sms=2 scale=0.1", []byte(`{"version":1}`)))
	f.Add(encodeEntry("", nil))
	f.Add(encodeEntry("k", []byte("payload\n\nwith a blank line")))
	f.Add([]byte(entryMagic + "\nkey: k\nsha256: 00\nlen: -1\n\n"))
	f.Add([]byte("\n\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		key, payload, err := decodeEntry(raw, "")
		if err != nil {
			return
		}
		lenStr, _ := headerField(raw, "len")
		if n, err := strconv.Atoi(lenStr); err != nil || n != len(payload) {
			t.Fatalf("accepted a %d-byte payload under header len %q", len(payload), lenStr)
		}
		sum := sha256.Sum256(payload)
		if sumHex, _ := headerField(raw, "sha256"); sumHex != hex.EncodeToString(sum[:]) {
			t.Fatalf("accepted a payload whose checksum differs from header sha256 %q", sumHex)
		}
		key2, payload2, err := decodeEntry(encodeEntry(key, payload), key)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if key2 != key || !bytes.Equal(payload2, payload) {
			t.Fatalf("entry changed through re-encode: key %q -> %q", key, key2)
		}
	})
}
