package datagen

import (
	"math/rand"

	"repro/internal/dataframe"
	"repro/internal/ml"
)

// Student mirrors the "Predict Student Performance from Game Play" dataset:
// the training table is game sessions labelled "answers the question
// correctly", the relevant table is the event stream (event name, level,
// room / screen coordinates, elapsed time, hover duration).
//
// Planted signal: a latent skill drives how quickly a player clears
// checkpoint events — skilled players produce checkpoint events with low
// elapsed_time at high levels. The discriminative query family is
//
//	COUNT(*) WHERE event_name = "checkpoint" AND elapsed_time <= t GROUP BY session_id
//
// while total event counts are skill-independent.
func Student(opts Options) *Dataset {
	opts = opts.withDefaults(900, 25)
	rng := rand.New(rand.NewSource(opts.Seed))
	n := opts.TrainRows

	events := []string{"navigate_click", "person_click", "cutscene_click", "object_hover", "notification_click", "map_click"}

	sessionIDs := make([]int64, n)
	grades := make([]int64, n)
	labels := make([]int64, n)

	// A session logs LogsPerKey noise events, 2 fast and 3 slow checkpoints
	// on average; a row per session to spare lets the log grow without
	// reallocating.
	rows := n * (opts.LogsPerKey + 6)
	lSession := make([]int64, 0, rows)
	lLevel := make([]int64, 0, rows)
	lElapsed := make([]int64, 0, rows)
	lEvent := make([]string, 0, rows)
	lRoomX := make([]float64, 0, rows)
	lRoomY := make([]float64, 0, rows)
	lHover := make([]float64, 0, rows)

	for i := 0; i < n; i++ {
		sessionIDs[i] = int64(i)
		grades[i] = int64(6 + rng.Intn(4))
		skill := rng.NormFloat64()

		// Noise events, skill-independent.
		nNoise := poisson(rng, float64(opts.LogsPerKey))
		for j := 0; j < nNoise; j++ {
			lSession = append(lSession, sessionIDs[i])
			lEvent = append(lEvent, pick(rng, events))
			lLevel = append(lLevel, int64(rng.Intn(23)))
			lElapsed = append(lElapsed, int64(rng.Intn(100000)))
			lRoomX = append(lRoomX, rng.Float64()*800)
			lRoomY = append(lRoomY, rng.Float64()*600)
			lHover = append(lHover, rng.Float64()*2000)
		}
		// Checkpoint events: skilled players clear more of them quickly.
		nFast := poisson(rng, 4*sigmoid(skill))
		for j := 0; j < nFast; j++ {
			lSession = append(lSession, sessionIDs[i])
			lEvent = append(lEvent, "checkpoint")
			lLevel = append(lLevel, int64(10+rng.Intn(13)))
			lElapsed = append(lElapsed, int64(rng.Intn(20000))) // fast
			lRoomX = append(lRoomX, rng.Float64()*800)
			lRoomY = append(lRoomY, rng.Float64()*600)
			lHover = append(lHover, rng.Float64()*500)
		}
		// Slow checkpoints: everyone produces some, diluting the
		// predicate-free checkpoint count.
		nSlow := poisson(rng, 3)
		for j := 0; j < nSlow; j++ {
			lSession = append(lSession, sessionIDs[i])
			lEvent = append(lEvent, "checkpoint")
			lLevel = append(lLevel, int64(rng.Intn(23)))
			lElapsed = append(lElapsed, int64(40000+rng.Intn(100000))) // slow
			lRoomX = append(lRoomX, rng.Float64()*800)
			lRoomY = append(lRoomY, rng.Float64()*600)
			lHover = append(lHover, rng.Float64()*2000)
		}

		logit := 2.3*skill + 0.1*float64(grades[i]-7) - 0.2 + 0.5*rng.NormFloat64()
		if rng.Float64() < sigmoid(logit) {
			labels[i] = 1
		}
	}

	train := dataframe.MustNewTable(
		dataframe.NewIntColumn("session_id", sessionIDs, nil),
		dataframe.NewIntColumn("grade", grades, nil),
		dataframe.NewIntColumn("label", labels, nil),
	)
	relevant := dataframe.MustNewTable(
		dataframe.NewIntColumn("session_id", lSession, nil),
		dataframe.NewStringColumn("event_name", lEvent, nil),
		dataframe.NewIntColumn("level", lLevel, nil),
		dataframe.NewIntColumn("elapsed_time", lElapsed, nil),
		dataframe.NewFloatColumn("room_coor_x", lRoomX, nil),
		dataframe.NewFloatColumn("room_coor_y", lRoomY, nil),
		dataframe.NewFloatColumn("hover_duration", lHover, nil),
	)
	return &Dataset{
		Name:         "student",
		Train:        train,
		Relevant:     relevant,
		Task:         ml.Binary,
		Label:        "label",
		Keys:         []string{"session_id"},
		AggAttrs:     []string{"level", "elapsed_time", "room_coor_x", "room_coor_y", "hover_duration", "event_name"},
		PredAttrs:    []string{"event_name", "level", "elapsed_time", "hover_duration", "room_coor_x", "room_coor_y"},
		BaseFeatures: []string{"grade"},
	}
}
