package core

// MisconceptionKind distinguishes the paper's two headings.
type MisconceptionKind string

// Kinds, after Hennessy & Patterson's usage adopted by the paper:
// a fallacy is a commonly held false belief; a pitfall is an easily made
// mistake.
const (
	Fallacy MisconceptionKind = "fallacy"
	Pitfall MisconceptionKind = "pitfall"
)

// Misconception is one of the paper's ten fallacies/pitfalls, with a
// pointer to the experiment in this repository that demonstrates it.
type Misconception struct {
	ID         int
	Kind       MisconceptionKind
	Title      string
	Summary    string
	Experiment string // the abwsim experiment key that demonstrates it
}

// Misconceptions catalogs all ten, in the paper's order.
var Misconceptions = [10]Misconception{
	{
		ID: 1, Kind: Pitfall,
		Title: "Ignoring the variability of the avail-bw process",
		Summary: "Even with perfect per-sample accuracy, the sample mean of k " +
			"samples deviates from the true mean with variance Var[A_τ]/k " +
			"(Eq. 11); at short timescales hundreds of samples are needed for " +
			"ε < 5%.",
		Experiment: "fig1",
	},
	{
		ID: 2, Kind: Pitfall,
		Title: "Ignoring the relation between probing stream duration and averaging timescale",
		Summary: "The probing stream duration IS the averaging timescale τ of " +
			"the measured avail-bw process; it is a measurement knob, not an " +
			"implementation parameter.",
		Experiment: "fig2",
	},
	{
		ID: 3, Kind: Fallacy,
		Title: "Faster estimation is better",
		Summary: "Fewer or shorter streams reduce latency but raise variance: " +
			"shorter streams mean a smaller τ, hence larger Var[A_τ], hence a " +
			"noisier sample mean at fixed sample count.",
		Experiment: "latency",
	},
	{
		ID: 4, Kind: Fallacy,
		Title: "Packet pairs are as good as packet trains",
		Summary: "With real (non-fluid) cross traffic of a few large packets, " +
			"per-pair samples quantize coarsely and the estimation error grows " +
			"with the cross-traffic packet size (Table 1).",
		Experiment: "table1",
	},
	{
		ID: 5, Kind: Pitfall,
		Title: "Estimating the tight link capacity with end-to-end capacity estimation tools",
		Summary: "Capacity tools measure the narrow link C_n, which can differ " +
			"from the tight link capacity C_t that direct probing needs " +
			"(e.g. Fast Ethernet narrow link before a loaded OC-3 tight link).",
		Experiment: "narrowtight",
	},
	{
		ID: 6, Kind: Pitfall,
		Title: "Ignoring the effects of cross traffic burstiness",
		Summary: "Queues build before 100% utilization; with bursty cross " +
			"traffic Ro/Ri dips below 1 well before Ri reaches A, biasing both " +
			"probing classes toward underestimation (Fig. 3).",
		Experiment: "fig3",
	},
	{
		ID: 7, Kind: Pitfall,
		Title: "Ignoring the effects of multiple bottlenecks",
		Summary: "With several links of (near-)equal avail-bw the probing " +
			"stream interacts with cross traffic at each, compounding the rate " +
			"compression and deepening underestimation (Fig. 4).",
		Experiment: "fig4",
	},
	{
		ID: 8, Kind: Fallacy,
		Title: "Increasing One-Way Delays is equivalent to Ro < Ri",
		Summary: "The OWD time series carries far more information than the " +
			"single Ro/Ri number: a late cross-traffic burst can depress Ro " +
			"without any increasing OWD trend (Fig. 5).",
		Experiment: "fig5",
	},
	{
		ID: 9, Kind: Fallacy,
		Title: "Iterative probing converges to a single avail-bw estimate",
		Summary: "The avail-bw process varies during the iteration; iterative " +
			"probing can only bracket a variation range (R_L, R_H) at timescale " +
			"τ — which is not a confidence interval for the mean (Fig. 6).",
		Experiment: "fig6",
	},
	{
		ID: 10, Kind: Pitfall,
		Title: "Evaluating avail-bw estimation against bulk TCP throughput",
		Summary: "Bulk TCP throughput depends on socket buffers, RTT, loss, " +
			"buffering and cross-traffic responsiveness; it can sit above or " +
			"below the avail-bw and must not be used as ground truth (Fig. 7).",
		Experiment: "fig7",
	},
}
