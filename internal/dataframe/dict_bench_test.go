package dataframe_test

import (
	"testing"

	"repro/internal/dataframe"
	"repro/internal/datagen"
)

// BenchmarkDictBuild times one dictionary build over each string predicate
// column of the ingest-clickstream relevant table (~210k rows).
func BenchmarkDictBuild(b *testing.B) {
	r := datagen.NewClickstream(datagen.Options{TrainRows: 10000, LogsPerKey: 20, Seed: 1}).Relevant
	for _, attr := range []string{"event", "page"} {
		col := r.Column(attr)
		b.Run(attr, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				// A fresh column has no encoding yet, so Dict builds one.
				dataframe.NewStringColumn(attr, col.StrData(), col.ValidData()).Dict()
			}
		})
	}
}
