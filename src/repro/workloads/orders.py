"""Order-processing workload with shifting locality.

A small e-commerce back end: a product catalog, an order store and customer
sessions.  The access pattern shifts over time — during the "browse" phase a
front-end node hammers the catalog; during the "fulfil" phase a warehouse
node hammers the order store.  A static placement is wrong for at least one
phase; the adaptive policy (experiment E8) moves the hot objects to the nodes
using them.
"""

from __future__ import annotations


class Catalog:
    """Product catalog: priced items with stock levels."""

    def __init__(self):
        self.products = {}
        self.lookups = 0

    def add_product(self, sku, price, stock):
        products = self.products
        products[sku] = {"price": price, "stock": stock}
        self.products = products
        return len(products)

    def price_of(self, sku):
        self.lookups = self.lookups + 1
        products = self.products
        if sku in products:
            return products[sku]["price"]
        return None

    def reserve(self, sku, quantity):
        products = self.products
        if sku not in products:
            return False
        if products[sku]["stock"] < quantity:
            return False
        products[sku]["stock"] = products[sku]["stock"] - quantity
        self.products = products
        return True

    def product_count(self):
        return len(self.products)


class OrderStore:
    """Accumulates placed orders and tracks their fulfilment."""

    def __init__(self):
        self.orders = []
        self.fulfilled = 0

    def place(self, sku, quantity, unit_price):
        orders = self.orders
        order_id = len(orders)
        orders.append(
            {"id": order_id, "sku": sku, "quantity": quantity,
             "total": quantity * unit_price, "fulfilled": False}
        )
        self.orders = orders
        return order_id

    def fulfil(self, order_id):
        orders = self.orders
        if order_id < 0 or order_id >= len(orders):
            return False
        if orders[order_id]["fulfilled"]:
            return False
        orders[order_id]["fulfilled"] = True
        self.orders = orders
        self.fulfilled = self.fulfilled + 1
        return True

    def pending(self):
        return [order["id"] for order in self.orders if not order["fulfilled"]]

    def revenue(self):
        return sum(order["total"] for order in self.orders if order["fulfilled"])

    def order_count(self):
        return len(self.orders)


class CustomerSession:
    """A front-end session: browses the catalog and places orders."""

    def __init__(self, customer, catalog, orders):
        self.customer = customer
        self.catalog = catalog
        self.orders = orders
        self.basket_value = 0

    def browse(self, skus):
        total = 0
        for sku in skus:
            price = self.catalog.price_of(sku)
            if price is not None:
                total = total + price
        self.basket_value = total
        return total

    def buy(self, sku, quantity):
        price = self.catalog.price_of(sku)
        if price is None:
            return -1
        if not self.catalog.reserve(sku, quantity):
            return -1
        return self.orders.place(sku, quantity, price)


def seed_catalog(catalog, product_count: int = 20) -> None:
    """Populate a catalog handle with ``product_count`` products."""
    for index in range(product_count):
        catalog.add_product(f"sku-{index}", 10 + index, 100)
