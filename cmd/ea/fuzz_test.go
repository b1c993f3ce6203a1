package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/postproc"
)

// FuzzDecode drives both input formats with arbitrary bytes: decoding
// never panics, packed input decodes exactly as postproc.Unpack, ascii
// accepts only bits and separators, and the packed bits rendered as
// '0'/'1' text with arbitrary separators decode back unchanged. seps
// picks the separators: byte i&3 selects which one, i>>2 how many (0-2)
// go in front of each bit.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, seps []byte) {
		bits, err := decode(data, "packed")
		if err != nil {
			t.Fatalf("packed decode: %v", err)
		}
		if !bytes.Equal(bits, postproc.Unpack(data)) {
			t.Fatal("packed decode differs from postproc.Unpack")
		}

		valid := true
		for _, c := range data {
			if strings.IndexByte("01 \t\n\r,", c) < 0 {
				valid = false
			}
		}
		if _, err := decode(data, "ascii"); (err == nil) != valid {
			t.Fatalf("ascii decode of %q: err = %v, want error %v", data, err, !valid)
		}

		const sepSet = " \t\n,"
		text := make([]byte, 0, 2*len(bits))
		for i, b := range bits {
			if len(seps) > 0 {
				s := seps[i%len(seps)]
				for k := 0; k < int(s>>2)%3; k++ {
					text = append(text, sepSet[s&3])
				}
			}
			text = append(text, '0'+b)
		}
		got, err := decode(text, "ascii")
		if err != nil {
			t.Fatalf("ascii decode of rendered bits: %v", err)
		}
		if !bytes.Equal(got, bits) {
			t.Fatalf("ascii round trip of %q differs", text)
		}
	})
}
