package feataug

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// seedPlanCorpus adds the committed golden plan file plus malformed
// neighbours of it: empty, truncated, a foreign version and a non-object.
func seedPlanCorpus(f *testing.F, golden string) {
	data, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte{})
	f.Add(data[:len(data)/2])
	f.Add(bytes.Replace(data, []byte(`"version": 1`), []byte(`"version": 2`), 1))
	f.Add([]byte(`[1]`))
}

// checkFixedPoint requires that an accepted plan's encoding decodes again and
// re-encodes to the same bytes.
func checkFixedPoint(t *testing.T, encoded []byte, decodeEncode func([]byte) ([]byte, error)) {
	t.Helper()
	again, err := decodeEncode(encoded)
	if err != nil {
		t.Fatalf("re-decoding an encoded plan: %v\n%s", err, encoded)
	}
	if !bytes.Equal(again, encoded) {
		t.Fatalf("encode is not a fixed point of decode→encode:\n%s\nvs\n%s", encoded, again)
	}
}

// FuzzDecodePlan feeds arbitrary bytes to DecodePlan: it must never panic,
// and any plan it accepts must encode to a fixed point of decode→encode.
func FuzzDecodePlan(f *testing.F) {
	seedPlanCorpus(f, "plan_golden.json")
	decodeEncode := func(data []byte) ([]byte, error) {
		p, err := DecodePlan(data)
		if err != nil {
			return nil, err
		}
		return p.Encode()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		encoded, err := decodeEncode(data)
		if err != nil {
			return
		}
		checkFixedPoint(t, encoded, decodeEncode)
	})
}

// FuzzDecodeMultiPlan is FuzzDecodePlan for DecodeMultiPlan.
func FuzzDecodeMultiPlan(f *testing.F) {
	seedPlanCorpus(f, "multiplan_golden.json")
	decodeEncode := func(data []byte) ([]byte, error) {
		p, err := DecodeMultiPlan(data)
		if err != nil {
			return nil, err
		}
		return p.Encode()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		encoded, err := decodeEncode(data)
		if err != nil {
			return
		}
		checkFixedPoint(t, encoded, decodeEncode)
	})
}
