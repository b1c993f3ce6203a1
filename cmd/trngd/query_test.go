package main

import (
	"net/url"
	"testing"
)

// FuzzQueryParam holds the allocation-free /random query parser to
// url.ParseQuery: on every raw query ParseQuery accepts, queryParam
// must return the key's first value and presence exactly as
// url.Values.Get / Has do — escaped keys, empty pairs and '+' spaces
// included. The checked-in corpus under testdata/fuzz replays the
// divergences found so far as regression seeds.
func FuzzQueryParam(f *testing.F) {
	for _, s := range [][2]string{
		{"bytes=4096", "bytes"},
		{"bytes=4096&pr=1", "pr"},
		{"pr&bytes=64", "pr"},
		{"bytes=%34%30%39%36", "bytes"},
		{"", "bytes"},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		vals, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		got, ok := queryParam(raw, key)
		if want, wantOK := vals.Get(key), vals.Has(key); got != want || ok != wantOK {
			t.Fatalf("queryParam(%q, %q) = (%q, %v), ParseQuery gives (%q, %v)", raw, key, got, ok, want, wantOK)
		}
	})
}
