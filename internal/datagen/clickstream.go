package datagen

import (
	"math/rand"

	"repro/internal/dataframe"
	"repro/internal/ml"
)

// Clickstream is the streaming scenario behind the delta-maintenance work
// (PR 9): a session-log relevant table that keeps growing after the plan is
// fitted. The base Dataset is the snapshot the plan binds against; Batch
// generates the append batches a stream delivers afterwards — deterministic
// given (seed, batch index), so differential tests and benchmarks can replay
// the same stream against delta-maintained and rebuilt-from-scratch engines.
//
// Batches look like real stream tail: timestamps strictly later than
// everything before them, most events from users the snapshot has seen
// (delta rows extend existing groups) and a fraction from brand-new users
// (delta rows open new groups), with the occasional NULL dwell time.
type Clickstream struct {
	*Dataset
	opts  Options
	users int // users in the base snapshot; batches draw mostly from these
}

// Clickstream timestamps: the base snapshot covers [0, clickTSBase); batch i
// covers [clickTSBase + i*clickTSStep, clickTSBase + (i+1)*clickTSStep).
const (
	clickTSBase = 100000
	clickTSStep = 1000
)

var (
	clickEvents = []string{"view", "click", "add", "buy"}
	clickPages  = []string{"home", "search", "detail", "cart", "checkout", "account", "help"}
)

// NewClickstream builds the streaming clickstream scenario. The training
// table is one row per user; the relevant table is the user's event log up to
// the snapshot instant. Planted signal: each user's latent intent drives the
// rate of "buy" events on the "checkout" page, so the discriminative query is
// a filtered COUNT per user — and because later batches carry the same
// signal, a delta-maintained engine keeps recovering it without refitting.
func NewClickstream(opts Options) *Clickstream {
	opts = opts.withDefaults(1000, 20)
	rng := rand.New(rand.NewSource(opts.Seed))
	n := opts.TrainRows

	userIDs := make([]int64, n)
	visits := make([]int64, n)
	labels := make([]int64, n)
	// A user logs LogsPerKey noise events and one buy on average; a row per
	// user to spare lets the log grow without reallocating.
	rows := n * (opts.LogsPerKey + 2)
	lUser := make([]int64, 0, rows)
	lEvent := make([]string, 0, rows)
	lPage := make([]string, 0, rows)
	lDwell := make([]float64, 0, rows)
	lValid := make([]bool, 0, rows)
	lTS := make([]int64, 0, rows)
	for i := 0; i < n; i++ {
		userIDs[i] = int64(i)
		visits[i] = int64(1 + rng.Intn(30))
		u := rng.NormFloat64() // latent purchase intent
		nNoise := poisson(rng, float64(opts.LogsPerKey))
		for j := 0; j < nNoise; j++ {
			lUser = append(lUser, userIDs[i])
			lEvent = append(lEvent, pick(rng, clickEvents[:3]))
			lPage = append(lPage, pick(rng, clickPages))
			lDwell = append(lDwell, rng.ExpFloat64()*30)
			lValid = append(lValid, rng.Float64() > 0.05)
			lTS = append(lTS, int64(rng.Intn(clickTSBase)))
		}
		nBuy := poisson(rng, 2*sigmoid(u))
		for j := 0; j < nBuy; j++ {
			lUser = append(lUser, userIDs[i])
			lEvent = append(lEvent, "buy")
			lPage = append(lPage, "checkout")
			lDwell = append(lDwell, 5+rng.ExpFloat64()*10)
			lValid = append(lValid, true)
			lTS = append(lTS, int64(rng.Intn(clickTSBase)))
		}
		logit := 2.0*u + 0.02*float64(visits[i]) - 0.5 + 0.5*rng.NormFloat64()
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
		dataframe.NewStringColumn("page", lPage, nil),
		dataframe.NewFloatColumn("dwell", lDwell, lValid),
		dataframe.NewTimeColumn("ts", lTS, nil),
	)
	return &Clickstream{
		Dataset: &Dataset{
			Name:         "clickstream",
			Train:        train,
			Relevant:     relevant,
			Task:         ml.Binary,
			Label:        "label",
			Keys:         []string{"user_id"},
			AggAttrs:     []string{"dwell", "ts", "event", "page"},
			PredAttrs:    []string{"event", "page", "dwell", "ts"},
			BaseFeatures: []string{"visits"},
		},
		opts:  opts,
		users: n,
	}
}

// Batch generates the i-th append batch of the stream, rows events long, with
// the relevant table's schema. Deterministic given the scenario seed and i —
// regenerating batch i always yields identical rows, whoever consumed the
// earlier ones. About 85% of events come from snapshot users; the rest from
// new users in [users, users*5/4), opening groups the snapshot never saw.
func (c *Clickstream) Batch(i, rows int) *dataframe.Table {
	rng := rand.New(rand.NewSource(c.opts.Seed + 1_000_003*int64(i+1)))
	lUser := make([]int64, rows)
	lEvent := make([]string, rows)
	lPage := make([]string, rows)
	lDwell := make([]float64, rows)
	lValid := make([]bool, rows)
	lTS := make([]int64, rows)
	tLo := int64(clickTSBase + i*clickTSStep)
	for j := 0; j < rows; j++ {
		if rng.Float64() < 0.85 {
			lUser[j] = int64(rng.Intn(c.users))
		} else {
			lUser[j] = int64(c.users + rng.Intn(c.users/4+1))
		}
		if rng.Float64() < 0.1 {
			lEvent[j] = "buy"
			lPage[j] = "checkout"
			lDwell[j] = 5 + rng.ExpFloat64()*10
			lValid[j] = true
		} else {
			lEvent[j] = pick(rng, clickEvents[:3])
			lPage[j] = pick(rng, clickPages)
			lDwell[j] = rng.ExpFloat64() * 30
			lValid[j] = rng.Float64() > 0.05
		}
		lTS[j] = tLo + int64(rng.Intn(clickTSStep))
	}
	return dataframe.MustNewTable(
		dataframe.NewIntColumn("user_id", lUser, nil),
		dataframe.NewStringColumn("event", lEvent, nil),
		dataframe.NewStringColumn("page", lPage, nil),
		dataframe.NewFloatColumn("dwell", lDwell, lValid),
		dataframe.NewTimeColumn("ts", lTS, nil),
	)
}
