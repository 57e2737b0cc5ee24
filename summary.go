package hitlist6

import (
	"encoding/json"

	"hitlist6/internal/addr"
	"hitlist6/internal/tracking"
)

// Summary is the machine-readable counterpart of Report: every headline
// statistic of the paper's evaluation in one JSON-serializable struct,
// for regression tracking across runs and seeds.
type Summary struct {
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	Days  int     `json:"days"`

	Queries     uint64 `json:"queries"`
	UniqueAddrs int    `json:"unique_addrs"`
	UniqueIIDs  int    `json:"unique_iids"`

	Table1 struct {
		NTPAddrs        int     `json:"ntp_addrs"`
		HitlistAddrs    int     `json:"hitlist_addrs"`
		CAIDAAddrs      int     `json:"caida_addrs"`
		NTPxHitlist     int     `json:"ntp_x_hitlist"`
		NTPxCAIDA       int     `json:"ntp_x_caida"`
		NTPAvgPer48     float64 `json:"ntp_avg_per_48"`
		HitlistAvgPer48 float64 `json:"hitlist_avg_per_48"`
		CAIDAAvgPer48   float64 `json:"caida_avg_per_48"`
	} `json:"table1"`

	Entropy struct {
		NTPMedian     float64 `json:"ntp_median"`
		HitlistMedian float64 `json:"hitlist_median"`
		CAIDAMedian   float64 `json:"caida_median"`
	} `json:"figure1"`

	Lifetimes struct {
		ObservedOnce      float64 `json:"observed_once"`
		WeekOrLonger      float64 `json:"week_or_longer"`
		MonthOrLonger     float64 `json:"month_or_longer"`
		SixMonthsOrLonger float64 `json:"six_months_or_longer"`
	} `json:"figure2a"`

	Backscan struct {
		ClientsProbed      int     `json:"clients_probed"`
		ClientResponseRate float64 `json:"client_response_rate"`
		RandomResponseRate float64 `json:"random_response_rate"`
		AliasedPrefixes    int     `json:"aliased_prefixes"`
	} `json:"section42"`

	Categories struct {
		NTPHighEntropy float64 `json:"ntp_high_entropy"`
		NTPMedEntropy  float64 `json:"ntp_medium_entropy"`
		HitlistLowByte float64 `json:"hitlist_low_byte"`
	} `json:"figure5"`

	Tracking struct {
		EUI64Addresses int                `json:"eui64_addresses"`
		UniqueMACs     int                `json:"unique_macs"`
		UnlistedShare  float64            `json:"unlisted_share"`
		Trackable      int                `json:"trackable"`
		ClassShares    map[string]float64 `json:"class_shares"`
	} `json:"section52"`

	Geolocation struct {
		WiredMACs       int            `json:"wired_macs"`
		OffsetsInferred int            `json:"offsets_inferred"`
		Located         int            `json:"located"`
		Countries       map[string]int `json:"countries"`
	} `json:"section53"`
}

// Summarize computes the Summary. The study must have Run.
func (s *Study) Summarize() (*Summary, error) {
	if err := s.requireDatasets(); err != nil {
		return nil, err
	}
	out := &Summary{
		Seed:        s.Config.Seed,
		Scale:       s.Config.Scale,
		Days:        s.Config.Days,
		Queries:     s.RunStats.Queries,
		UniqueAddrs: s.Collector.NumAddrs(),
		UniqueIIDs:  s.IIDs.NumIIDs(),
	}

	t1, err := s.Table1()
	if err != nil {
		return nil, err
	}
	out.Table1.NTPAddrs = t1.NTP.Addrs
	out.Table1.HitlistAddrs = t1.Hitlist.Addrs
	out.Table1.CAIDAAddrs = t1.CAIDA.Addrs
	out.Table1.NTPxHitlist = t1.Hitlist.CommonAddrs
	out.Table1.NTPxCAIDA = t1.CAIDA.CommonAddrs
	out.Table1.NTPAvgPer48 = t1.NTP.AvgPer48
	out.Table1.HitlistAvgPer48 = t1.Hitlist.AvgPer48
	out.Table1.CAIDAAvgPer48 = t1.CAIDA.AvgPer48

	f1, err := s.Figure1()
	if err != nil {
		return nil, err
	}
	out.Entropy.NTPMedian = f1.NTP.Median()
	out.Entropy.HitlistMedian = f1.Hitlist.Median()
	out.Entropy.CAIDAMedian = f1.CAIDA.Median()

	f2a, err := s.Figure2a()
	if err != nil {
		return nil, err
	}
	out.Lifetimes.ObservedOnce = f2a.ObservedOnce
	out.Lifetimes.WeekOrLonger = f2a.WeekOrLonger
	out.Lifetimes.MonthOrLonger = f2a.MonthOrLonger
	out.Lifetimes.SixMonthsOrLonger = f2a.SixMonthsOrLonger

	bs, err := s.Backscan()
	if err != nil {
		return nil, err
	}
	out.Backscan.ClientsProbed = bs.ClientsProbed
	out.Backscan.ClientResponseRate = bs.ClientResponseRate()
	out.Backscan.RandomResponseRate = bs.RandomResponseRate()
	out.Backscan.AliasedPrefixes = len(bs.AliasedPrefixes)

	f5, err := s.Figure5()
	if err != nil {
		return nil, err
	}
	out.Categories.NTPHighEntropy = f5.NTP.Fractions[addr.CatHighEntropy]
	out.Categories.NTPMedEntropy = f5.NTP.Fractions[addr.CatMediumEntropy]
	out.Categories.HitlistLowByte = f5.Hitlist.Fractions[addr.CatLowByte]

	tr, err := s.Tracking()
	if err != nil {
		return nil, err
	}
	out.Tracking.EUI64Addresses = tr.EUI64Addresses
	out.Tracking.UniqueMACs = len(tr.MACs)
	out.Tracking.UnlistedShare = tr.UnlistedShare()
	out.Tracking.Trackable = tr.Trackable
	out.Tracking.ClassShares = make(map[string]float64)
	for c := tracking.MostlyStatic; c < tracking.NumClasses; c++ {
		out.Tracking.ClassShares[c.String()] = tr.ClassShare(c)
	}

	geo, err := s.Geolocation(0)
	if err != nil {
		return nil, err
	}
	out.Geolocation.WiredMACs = geo.WiredMACs
	out.Geolocation.OffsetsInferred = len(geo.Offsets)
	out.Geolocation.Located = len(geo.Located)
	out.Geolocation.Countries = geo.Countries

	return out, nil
}

// JSON renders the summary with indentation.
func (sm *Summary) JSON() ([]byte, error) {
	return json.MarshalIndent(sm, "", "  ")
}
