package datagen

import (
	"math/rand"

	"repro/internal/dataframe"
	"repro/internal/ml"
)

// Instacart mirrors the Instacart market-basket dataset: users labelled "will
// buy a Banana-family product", relevant table = flattened order history
// (product, aisle, department, hour of day, days since prior order,
// reordered flag) — the paper joins the order, product and department tables
// into one relevant table the same way.
//
// Planted signal: a latent produce-affinity drives the number of *reordered*
// purchases in the *produce* department; purchases elsewhere are noise. The
// discriminative query is
//
//	COUNT(*) WHERE department = "produce" AND reordered = true GROUP BY user_id
func Instacart(opts Options) *Dataset {
	opts = opts.withDefaults(1000, 18)
	rng := rand.New(rand.NewSource(opts.Seed))
	n := opts.TrainRows

	departments := []string{"produce", "dairy", "snacks", "frozen", "bakery", "beverages", "pantry"}
	aisles := []string{"fresh fruit", "yogurt", "chips", "ice cream", "bread", "soda", "spices", "juice"}
	products := []string{"banana", "apple", "milk", "chips", "bread", "soda", "rice", "eggs", "yogurt", "salsa"}

	userIDs := make([]int64, n)
	orderCounts := make([]int64, n)
	labels := make([]int64, n)

	// A user logs LogsPerKey noise, 1.5 signal and 2 dilution purchases on
	// average; a row and a half per user to spare lets the log grow without
	// reallocating.
	rows := n * (opts.LogsPerKey + 5)
	lUser := make([]int64, 0, rows)
	lHour := make([]int64, 0, rows)
	lDays := make([]int64, 0, rows)
	lProd := make([]string, 0, rows)
	lAisle := make([]string, 0, rows)
	lDept := make([]string, 0, rows)
	lReordered := make([]bool, 0, rows)
	lAddToCart := make([]float64, 0, rows)

	for i := 0; i < n; i++ {
		userIDs[i] = int64(i)
		produceAffinity := rng.NormFloat64()
		// Noise purchases across departments.
		nNoise := poisson(rng, float64(opts.LogsPerKey))
		for j := 0; j < nNoise; j++ {
			d := pick(rng, departments[1:]) // non-produce
			lUser = append(lUser, userIDs[i])
			lProd = append(lProd, pick(rng, products))
			lAisle = append(lAisle, pick(rng, aisles))
			lDept = append(lDept, d)
			lHour = append(lHour, int64(rng.Intn(24)))
			lDays = append(lDays, int64(rng.Intn(30)))
			lReordered = append(lReordered, rng.Float64() < 0.3)
			lAddToCart = append(lAddToCart, float64(1+rng.Intn(20)))
		}
		// Signal purchases: reordered produce, rate driven by affinity.
		nSignal := poisson(rng, 3*sigmoid(produceAffinity))
		for j := 0; j < nSignal; j++ {
			lUser = append(lUser, userIDs[i])
			lProd = append(lProd, pick(rng, []string{"banana", "apple", "fresh fruit mix"}))
			lAisle = append(lAisle, "fresh fruit")
			lDept = append(lDept, "produce")
			lHour = append(lHour, int64(8+rng.Intn(12)))
			lDays = append(lDays, int64(rng.Intn(14)))
			lReordered = append(lReordered, true)
			lAddToCart = append(lAddToCart, float64(1+rng.Intn(5)))
		}
		// Dilution: non-reordered produce browsing, affinity-independent.
		nDilute := poisson(rng, 2)
		for j := 0; j < nDilute; j++ {
			lUser = append(lUser, userIDs[i])
			lProd = append(lProd, pick(rng, products))
			lAisle = append(lAisle, "fresh fruit")
			lDept = append(lDept, "produce")
			lHour = append(lHour, int64(rng.Intn(24)))
			lDays = append(lDays, int64(rng.Intn(30)))
			lReordered = append(lReordered, false)
			lAddToCart = append(lAddToCart, float64(1+rng.Intn(20)))
		}
		orderCounts[i] = int64(nNoise + nSignal + nDilute)

		logit := 2.5*produceAffinity - 0.4 + 0.6*rng.NormFloat64()
		if rng.Float64() < sigmoid(logit) {
			labels[i] = 1
		}
	}

	train := dataframe.MustNewTable(
		dataframe.NewIntColumn("user_id", userIDs, nil),
		dataframe.NewIntColumn("order_count", orderCounts, nil),
		dataframe.NewIntColumn("label", labels, nil),
	)
	relevant := dataframe.MustNewTable(
		dataframe.NewIntColumn("user_id", lUser, nil),
		dataframe.NewStringColumn("product", lProd, nil),
		dataframe.NewStringColumn("aisle", lAisle, nil),
		dataframe.NewStringColumn("department", lDept, nil),
		dataframe.NewIntColumn("order_hour", lHour, nil),
		dataframe.NewIntColumn("days_since_prior", lDays, nil),
		dataframe.NewBoolColumn("reordered", lReordered, nil),
		dataframe.NewFloatColumn("add_to_cart_order", lAddToCart, nil),
	)
	return &Dataset{
		Name:         "instacart",
		Train:        train,
		Relevant:     relevant,
		Task:         ml.Binary,
		Label:        "label",
		Keys:         []string{"user_id"},
		AggAttrs:     []string{"add_to_cart_order", "order_hour", "days_since_prior", "product", "aisle", "department"},
		PredAttrs:    []string{"department", "aisle", "reordered", "order_hour", "days_since_prior", "product", "add_to_cart_order"},
		BaseFeatures: []string{"order_count"},
	}
}
