package datagen

import (
	"math/rand"

	"repro/internal/dataframe"
	"repro/internal/ml"
)

// stringHeavy* are the fixed value domains of the StringHeavy event log: four
// small domains and one (skuFamilies) of 300 values, every one under the
// dictionary cap, so each column compacts to its uint16 code array.
var (
	stringHeavyEvents   = []string{"view", "search", "add", "remove", "order", "return", "review", "support"}
	stringHeavyChannels = []string{"web", "app", "email", "ads", "partner"}
	stringHeavyDevices  = []string{"ios", "android", "macos", "windows", "linux",
		"ipad", "tablet", "tv", "console", "watch", "kiosk", "other"}
	stringHeavyCountries = stringHeavyDomain("c", 32)
	stringHeavySKUs      = stringHeavyDomain("sku", 300)
)

// stringHeavyDomain builds a deterministic value domain of the given size.
func stringHeavyDomain(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		// Two-digit-stable suffixes keep values short and the domain sorted
		// enough to read in dumps; contents are irrelevant to the signal.
		out[i] = prefix + string(rune('a'+i/26%26)) + string(rune('a'+i%26))
	}
	return out
}

// StringHeavy is the compact-storage scale scenario (PR 10): an event log
// where five of the eight relevant columns are strings, so the []string
// backings dominate the table's footprint. The relevant table is compacted
// as soon as it is built — dictionary codes are its primary storage and the
// raw []string arrays never survive construction. At the 10⁷-row scale the
// benchmarks use (TrainRows=250000, LogsPerKey=40), the raw layout needs
// roughly 16 header bytes per string cell (~640 MB across the string columns
// alone) while the compact layout stores one 2-byte code per cell, which is
// what lets the scenario fit CI memory at all.
//
// Planted signal: each user's latent propensity drives the rate of "order"
// events arriving through the "app" channel, so the discriminative query is
//
//	COUNT(*) WHERE event = "order" AND channel = "app" GROUP BY user_id
//
// a filtered count the popcount-driven COUNT path serves without a value
// pass.
func StringHeavy(opts Options) *Dataset {
	opts = opts.withDefaults(800, 12)
	rng := rand.New(rand.NewSource(opts.Seed))
	n := opts.TrainRows

	userIDs := make([]int64, n)
	visits := make([]int64, n)
	labels := make([]int64, n)

	// Row counts are TrainRows*LogsPerKey plus a propensity-driven tail, so
	// preallocating at the base size avoids append churn at the 10⁷ scale.
	total := n * opts.LogsPerKey
	lUser := make([]int64, 0, total)
	lEvent := make([]string, 0, total)
	lChannel := make([]string, 0, total)
	lCountry := make([]string, 0, total)
	lDevice := make([]string, 0, total)
	lSKU := make([]string, 0, total)
	lSpend := make([]float64, 0, total)
	lTS := make([]int64, 0, total)

	for i := 0; i < n; i++ {
		userIDs[i] = int64(i)
		visits[i] = int64(1 + rng.Intn(30))
		u := rng.NormFloat64() // latent propensity

		// Noise events: propensity-independent traffic across all domains.
		// The count is fixed (not Poisson) so callers can size the table
		// exactly: rows ≈ TrainRows * LogsPerKey.
		country := pick(rng, stringHeavyCountries)
		device := pick(rng, stringHeavyDevices)
		for j := 0; j < opts.LogsPerKey-1; j++ {
			lUser = append(lUser, userIDs[i])
			lEvent = append(lEvent, pick(rng, stringHeavyEvents))
			lChannel = append(lChannel, pick(rng, stringHeavyChannels))
			lCountry = append(lCountry, country)
			lDevice = append(lDevice, device)
			lSKU = append(lSKU, pick(rng, stringHeavySKUs))
			lSpend = append(lSpend, rng.Float64()*80)
			lTS = append(lTS, int64(rng.Intn(10000)))
		}
		// Signal events: app-channel orders, rate driven by propensity.
		nOrder := poisson(rng, 2*sigmoid(u))
		for j := 0; j < nOrder; j++ {
			lUser = append(lUser, userIDs[i])
			lEvent = append(lEvent, "order")
			lChannel = append(lChannel, "app")
			lCountry = append(lCountry, country)
			lDevice = append(lDevice, device)
			lSKU = append(lSKU, pick(rng, stringHeavySKUs))
			lSpend = append(lSpend, 20+rng.Float64()*200)
			lTS = append(lTS, int64(rng.Intn(10000)))
		}

		logit := 2.0*u + 0.02*float64(visits[i]) - 0.5 + 0.4*rng.NormFloat64()
		if rng.Float64() < sigmoid(logit) {
			labels[i] = 1
		}
	}

	train := dataframe.MustNewTable(
		dataframe.NewIntColumn("user_id", userIDs, nil),
		dataframe.NewIntColumn("visits", visits, nil),
		dataframe.NewIntColumn("label", labels, nil),
	)
	relevant := dataframe.MustNewTable(
		dataframe.NewIntColumn("user_id", lUser, nil),
		dataframe.NewStringColumn("event", lEvent, nil),
		dataframe.NewStringColumn("channel", lChannel, nil),
		dataframe.NewStringColumn("country", lCountry, nil),
		dataframe.NewStringColumn("device", lDevice, nil),
		dataframe.NewStringColumn("sku_family", lSKU, nil),
		dataframe.NewFloatColumn("spend", lSpend, nil),
		dataframe.NewTimeColumn("ts", lTS, nil),
	)
	relevant.Compact()
	return &Dataset{
		Name:         "stringheavy",
		Train:        train,
		Relevant:     relevant,
		Task:         ml.Binary,
		Label:        "label",
		Keys:         []string{"user_id"},
		AggAttrs:     []string{"spend", "ts", "event", "channel", "sku_family"},
		PredAttrs:    []string{"event", "channel", "country", "device", "ts"},
		BaseFeatures: []string{"visits"},
	}
}
