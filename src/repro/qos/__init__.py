"""Quality specification management and propagation
(Figures 2.2, 3.1 and 4.1; sections 3.1 and 3.5.1)."""
