package datagen

import (
	"math/rand"

	"repro/internal/dataframe"
	"repro/internal/ml"
)

// Tmall mirrors the IJCAI-15 repeat-buyer dataset: the training table is
// (user, merchant) pairs labelled "became a repeat buyer", the relevant table
// is the user behaviour log (clicks / carts / purchases / favourites with
// category, brand, price and timestamp).
//
// Planted signal: each user-merchant pair has a latent loyalty u. The number
// of *purchase* actions in the *recent window* is Poisson(exp(u)), while
// clicks and old actions are loyalty-independent noise. The label mixes u
// with the base features, so the discriminative query is
//
//	COUNT(*) WHERE action = "buy" AND timestamp >= t_recent GROUP BY user,merchant
//
// which only a predicate-aware generator can produce.
func Tmall(opts Options) *Dataset {
	opts = opts.withDefaults(1200, 14)
	rng := rand.New(rand.NewSource(opts.Seed))
	n := opts.TrainRows

	const (
		tOld    = 1000 // timestamps in [tOld, tRecent) are stale
		tRecent = 5000 // recent-window boundary
		tEnd    = 9000
	)
	actions := []string{"click", "cart", "fav"}
	categories := []string{"electronics", "clothing", "beauty", "food", "home", "sports"}
	brands := []string{"b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7"}

	userIDs := make([]int64, n)
	merchantIDs := make([]int64, n)
	ages := make([]int64, n)
	genders := make([]int64, n)
	labels := make([]int64, n)

	// A pair logs LogsPerKey noise actions, 1.5 recent and 1.5 stale
	// purchases on average; a row per pair to spare lets the log grow
	// without reallocating.
	rows := n * (opts.LogsPerKey + 4)
	lUser := make([]int64, 0, rows)
	lMerchant := make([]int64, 0, rows)
	lTS := make([]int64, 0, rows)
	lAction := make([]string, 0, rows)
	lCat := make([]string, 0, rows)
	lBrand := make([]string, 0, rows)
	lPrice := make([]float64, 0, rows)

	for i := 0; i < n; i++ {
		userIDs[i] = int64(i)
		merchantIDs[i] = int64(rng.Intn(n/10 + 1))
		ages[i] = int64(18 + rng.Intn(50))
		genders[i] = int64(rng.Intn(2))

		u := rng.NormFloat64() // latent loyalty
		// Noise actions: loyalty-independent clicks across the whole window.
		nNoise := poisson(rng, float64(opts.LogsPerKey))
		for j := 0; j < nNoise; j++ {
			lUser = append(lUser, userIDs[i])
			lMerchant = append(lMerchant, merchantIDs[i])
			lAction = append(lAction, pick(rng, actions))
			lCat = append(lCat, pick(rng, categories))
			lBrand = append(lBrand, pick(rng, brands))
			lPrice = append(lPrice, 10+rng.Float64()*200)
			lTS = append(lTS, int64(tOld+rng.Intn(tEnd-tOld)))
		}
		// Signal actions: recent purchases, rate driven by loyalty.
		nBuy := poisson(rng, 1.5*sigmoid(u)*2)
		for j := 0; j < nBuy; j++ {
			lUser = append(lUser, userIDs[i])
			lMerchant = append(lMerchant, merchantIDs[i])
			lAction = append(lAction, "buy")
			lCat = append(lCat, pick(rng, categories))
			lBrand = append(lBrand, pick(rng, brands))
			lPrice = append(lPrice, 30+rng.Float64()*300)
			lTS = append(lTS, int64(tRecent+rng.Intn(tEnd-tRecent)))
		}
		// Stale purchases: loyalty-independent, dilute the predicate-free COUNT.
		nStale := poisson(rng, 1.5)
		for j := 0; j < nStale; j++ {
			lUser = append(lUser, userIDs[i])
			lMerchant = append(lMerchant, merchantIDs[i])
			lAction = append(lAction, "buy")
			lCat = append(lCat, pick(rng, categories))
			lBrand = append(lBrand, pick(rng, brands))
			lPrice = append(lPrice, 30+rng.Float64()*300)
			lTS = append(lTS, int64(tOld+rng.Intn(tRecent-tOld)))
		}

		logit := 2.2*u + 0.3*float64(genders[i]) - 0.01*float64(ages[i]) - 0.3 + 0.5*rng.NormFloat64()
		if rng.Float64() < sigmoid(logit) {
			labels[i] = 1
		}
	}

	train := dataframe.MustNewTable(
		dataframe.NewIntColumn("user_id", userIDs, nil),
		dataframe.NewIntColumn("merchant_id", merchantIDs, nil),
		dataframe.NewIntColumn("age", ages, nil),
		dataframe.NewIntColumn("gender", genders, nil),
		dataframe.NewIntColumn("label", labels, nil),
	)
	relevant := dataframe.MustNewTable(
		dataframe.NewIntColumn("user_id", lUser, nil),
		dataframe.NewIntColumn("merchant_id", lMerchant, nil),
		dataframe.NewStringColumn("action", lAction, nil),
		dataframe.NewStringColumn("category", lCat, nil),
		dataframe.NewStringColumn("brand", lBrand, nil),
		dataframe.NewFloatColumn("price", lPrice, nil),
		dataframe.NewTimeColumn("timestamp", lTS, nil),
	)
	return &Dataset{
		Name:         "tmall",
		Train:        train,
		Relevant:     relevant,
		Task:         ml.Binary,
		Label:        "label",
		Keys:         []string{"user_id", "merchant_id"},
		AggAttrs:     []string{"price", "timestamp", "action", "category", "brand"},
		PredAttrs:    []string{"action", "category", "brand", "timestamp", "price"},
		BaseFeatures: []string{"age", "gender"},
	}
}
