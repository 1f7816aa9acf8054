package datagen

import (
	"math/rand"

	"repro/internal/dataframe"
	"repro/internal/ml"
)

// Merchant mirrors the Elo merchant-category recommendation dataset, the
// paper's regression task: training rows are merchants with a continuous
// loyalty score, the relevant table is the historical transaction log
// (purchase amount, installments, month lag, category, city).
//
// Planted signal: the target is dominated by the total purchase amount of
// *recent* (month_lag >= -2), *approved* transactions; old or declined
// transactions contribute nothing but inflate the predicate-free SUM. The
// discriminative query is
//
//	SUM(purchase_amount) WHERE month_lag >= -2 AND approved = true GROUP BY merchant_id
func Merchant(opts Options) *Dataset {
	opts = opts.withDefaults(1000, 16)
	rng := rand.New(rand.NewSource(opts.Seed))
	n := opts.TrainRows

	categories := []string{"grocery", "fuel", "restaurants", "travel", "electronics"}
	cities := []string{"c1", "c2", "c3", "c4", "c5", "c6"}

	merchantIDs := make([]int64, n)
	sectors := make([]int64, n)
	activeMonths := make([]int64, n)
	targets := make([]float64, n)

	// A merchant logs 5 recent, LogsPerKey old and 2 declined transactions
	// on average; a row per merchant to spare lets the log grow without
	// reallocating.
	rows := n * (opts.LogsPerKey + 8)
	lMerchant := make([]int64, 0, rows)
	lInstallments := make([]int64, 0, rows)
	lMonthLag := make([]int64, 0, rows)
	lCategory := make([]string, 0, rows)
	lCity := make([]string, 0, rows)
	lAmount := make([]float64, 0, rows)
	lApproved := make([]bool, 0, rows)

	for i := 0; i < n; i++ {
		merchantIDs[i] = int64(i)
		sectors[i] = int64(rng.Intn(10))
		activeMonths[i] = int64(3 + rng.Intn(24))

		recentSpend := 0.0
		// Recent approved transactions: these define the target.
		nRecent := 1 + poisson(rng, 4)
		for j := 0; j < nRecent; j++ {
			amt := rng.ExpFloat64() * 50
			recentSpend += amt
			lMerchant = append(lMerchant, merchantIDs[i])
			lAmount = append(lAmount, amt)
			lInstallments = append(lInstallments, int64(rng.Intn(6)))
			lMonthLag = append(lMonthLag, int64(-rng.Intn(3))) // 0, -1, -2
			lCategory = append(lCategory, pick(rng, categories))
			lCity = append(lCity, pick(rng, cities))
			lApproved = append(lApproved, true)
		}
		// Old transactions: big amounts, no effect on the target.
		nOld := poisson(rng, float64(opts.LogsPerKey))
		for j := 0; j < nOld; j++ {
			lMerchant = append(lMerchant, merchantIDs[i])
			lAmount = append(lAmount, rng.ExpFloat64()*80)
			lInstallments = append(lInstallments, int64(rng.Intn(12)))
			lMonthLag = append(lMonthLag, int64(-3-rng.Intn(10))) // -3 .. -12
			lCategory = append(lCategory, pick(rng, categories))
			lCity = append(lCity, pick(rng, cities))
			lApproved = append(lApproved, rng.Float64() < 0.9)
		}
		// Declined recent transactions: also pure dilution.
		nDeclined := poisson(rng, 2)
		for j := 0; j < nDeclined; j++ {
			lMerchant = append(lMerchant, merchantIDs[i])
			lAmount = append(lAmount, rng.ExpFloat64()*60)
			lInstallments = append(lInstallments, int64(rng.Intn(6)))
			lMonthLag = append(lMonthLag, int64(-rng.Intn(3)))
			lCategory = append(lCategory, pick(rng, categories))
			lCity = append(lCity, pick(rng, cities))
			lApproved = append(lApproved, false)
		}

		targets[i] = 0.02*recentSpend + 0.05*float64(sectors[i]) + 0.4*rng.NormFloat64()
	}

	train := dataframe.MustNewTable(
		dataframe.NewIntColumn("merchant_id", merchantIDs, nil),
		dataframe.NewIntColumn("sector", sectors, nil),
		dataframe.NewIntColumn("active_months", activeMonths, nil),
		dataframe.NewFloatColumn("label", targets, nil),
	)
	relevant := dataframe.MustNewTable(
		dataframe.NewIntColumn("merchant_id", lMerchant, nil),
		dataframe.NewFloatColumn("purchase_amount", lAmount, nil),
		dataframe.NewIntColumn("installments", lInstallments, nil),
		dataframe.NewIntColumn("month_lag", lMonthLag, nil),
		dataframe.NewStringColumn("category", lCategory, nil),
		dataframe.NewStringColumn("city", lCity, nil),
		dataframe.NewBoolColumn("approved", lApproved, nil),
	)
	return &Dataset{
		Name:         "merchant",
		Train:        train,
		Relevant:     relevant,
		Task:         ml.Regression,
		Label:        "label",
		Keys:         []string{"merchant_id"},
		AggAttrs:     []string{"purchase_amount", "installments", "month_lag", "category", "city"},
		PredAttrs:    []string{"month_lag", "approved", "category", "installments", "city"},
		BaseFeatures: []string{"sector", "active_months"},
	}
}
