"""Independent reference computations that the tests check the package against."""

import math

from fedspoof.domain import EARTH_RADIUS_M, GeoPos


def haversine_m(a: GeoPos, b: GeoPos) -> float:
    """Great-circle distance in meters."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))
